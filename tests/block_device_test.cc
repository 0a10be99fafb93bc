// Tests of the one device command path (blk::BlockDevice) on both media:
// the spinning device and flash::FlashDevice, which differ only in their
// media hooks. Each case runs on both and pins what the shared path owns:
// the service order a flush-plan preview reports, the events and commit
// epochs of a batch, and the rejection of a bad batch before any write.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/flash/flash_device.h"
#include "src/obs/trace.h"

namespace cffs {
namespace {

using obs::EventKind;

enum class Media { kSpinning, kFlash };

class BlockDeviceTest : public ::testing::TestWithParam<Media> {
 protected:
  BlockDeviceTest() : model_(disk::TestDisk(256, 4, 64), &clock_) {
    if (GetParam() == Media::kFlash) {
      auto flash = std::make_unique<flash::FlashDevice>(&model_, &clock_,
                                                        flash::DefaultFlash());
      flash_ = flash.get();
      dev_ = std::move(flash);
    } else {
      dev_ = std::make_unique<blk::BlockDevice>(&model_);
    }
    model_.set_trace(&trace_);
    dev_->set_trace(&trace_);
  }

  bool flash() const { return flash_ != nullptr; }

  // Every block that the recorded kBlockWrite events committed, in order.
  std::vector<uint64_t> CommittedBlocks() const {
    std::vector<uint64_t> out;
    for (const obs::TraceEvent& e : trace_.Events()) {
      if (e.kind != EventKind::kBlockWrite) continue;
      for (uint64_t b = 0; b < e.b; ++b) out.push_back(e.a + b);
    }
    return out;
  }

  SimClock clock_;
  disk::DiskModel model_;
  obs::TraceRecorder trace_;
  std::unique_ptr<blk::BlockDevice> dev_;
  flash::FlashDevice* flash_ = nullptr;
};

// The flush-plan preview the crash enumerator reads is the order the next
// SyncAll really commits. On the spinning device the head is first moved
// off block 0, so C-LOOK serves the blocks past it and then wraps; flash
// serves the plan as submitted (FCFS).
TEST_P(BlockDeviceTest, FlushPlanPreviewMatchesTheCommittedOrder) {
  const std::vector<uint8_t> block(blk::kBlockSize, 0x42);
  ASSERT_TRUE(dev_->WriteBlock(40, block).ok());

  cache::BufferCache cache(dev_.get(), 64);
  for (const uint64_t bno : {70u, 10u, 51u, 30u, 50u}) {
    auto ref = cache.GetZero(bno);
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = static_cast<uint8_t>(bno);
    if (bno == 50 || bno == 51) cache.SetFlushUnit(*ref, 5);
    cache.MarkDirty(*ref);
  }
  std::vector<uint64_t> preview;
  for (const auto& d : cache.FlushPlanBlocks()) preview.push_back(d.bno);
  const std::vector<uint64_t> expect =
      flash() ? std::vector<uint64_t>{10, 30, 50, 51, 70}
              : std::vector<uint64_t>{50, 51, 70, 10, 30};
  EXPECT_EQ(preview, expect);

  trace_.Clear();
  ASSERT_TRUE(cache.SyncAll().ok());
  EXPECT_EQ(CommittedBlocks(), preview);
}

// One batch of two coalescing units and one lone block, submitted out of
// block order: the spinning device sorts it (C-LOOK from block 0) and
// emits each command's kDiskIo then kBlockWrite; flash keeps the
// submission order, emits one kBlockWrite per command and then one
// kFlashIo for the window. Both end with one kWriteBatch of 6 ops in 3
// commands, and every command shares the batch's epoch.
TEST_P(BlockDeviceTest, BatchEventsAndEpochs) {
  const std::vector<uint8_t> block(blk::kBlockSize, 0x17);
  std::vector<blk::WriteOp> ops;
  for (const uint64_t bno : {40u, 41u}) ops.push_back({bno, block.data(), 2});
  for (const uint64_t bno : {20u, 21u, 22u}) {
    ops.push_back({bno, block.data(), 1});
  }
  ops.push_back({30, block.data(), UINT64_MAX});

  const uint64_t epoch = dev_->commit_epoch() + 1;
  ASSERT_TRUE(dev_->WriteBatch(ops).ok());
  EXPECT_EQ(dev_->commit_epoch(), epoch);
  const std::vector<obs::TraceEvent> events = trace_.Events();

  struct Want {
    EventKind kind;
    uint64_t a = 0;
    uint64_t b = 0;
  };
  std::vector<Want> want;
  if (flash()) {
    want = {{EventKind::kBlockWrite, 40, 2},
            {EventKind::kBlockWrite, 20, 3},
            {EventKind::kBlockWrite, 30, 1},
            {EventKind::kFlashIo, 40, 6}};
  } else {
    want = {{EventKind::kDiskIo, 20 * blk::kSectorsPerBlock,
             3 * blk::kSectorsPerBlock},
            {EventKind::kBlockWrite, 20, 3},
            {EventKind::kDiskIo, 30 * blk::kSectorsPerBlock,
             blk::kSectorsPerBlock},
            {EventKind::kBlockWrite, 30, 1},
            {EventKind::kDiskIo, 40 * blk::kSectorsPerBlock,
             2 * blk::kSectorsPerBlock},
            {EventKind::kBlockWrite, 40, 2}};
  }
  want.push_back({EventKind::kWriteBatch, ops.size(), 3});
  ASSERT_EQ(events.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(events[i].kind, want[i].kind);
    EXPECT_EQ(events[i].a, want[i].a);
    EXPECT_EQ(events[i].b, want[i].b);
    if (events[i].kind == EventKind::kBlockWrite ||
        events[i].kind == EventKind::kFlashIo) {
      EXPECT_EQ(events[i].aux, epoch);
    }
  }
  EXPECT_EQ(dev_->stats().writes, 3u);
  EXPECT_EQ(dev_->stats().blocks_written, 6u);

  // A standalone write is the next epoch.
  trace_.Clear();
  ASSERT_TRUE(dev_->WriteBlock(60, block).ok());
  EXPECT_EQ(dev_->commit_epoch(), epoch + 1);
  EXPECT_EQ(CommittedBlocks(), std::vector<uint64_t>{60});
  for (const obs::TraceEvent& e : trace_.Events()) {
    if (e.kind == EventKind::kBlockWrite) {
      EXPECT_EQ(e.aux, epoch + 1);
    }
  }
}

// A batch holding one bad op (past the end, or without data) is refused
// whole: nothing is written, no stats or time move and no epoch is spent,
// so the next write gets the epoch the batch would have had.
TEST_P(BlockDeviceTest, BadBatchWritesNothingAndSpendsNoEpoch) {
  const std::vector<uint8_t> block(blk::kBlockSize, 0x99);
  ASSERT_TRUE(dev_->WriteBlock(7, block).ok());
  for (const blk::WriteOp bad :
       {blk::WriteOp{dev_->block_count(), block.data(), UINT64_MAX},
        blk::WriteOp{9, nullptr, UINT64_MAX}}) {
    trace_.Clear();
    const uint64_t epoch = dev_->commit_epoch();
    const blk::BlockIoStats before = dev_->stats();
    const SimTime t0 = clock_.now();
    const std::vector<blk::WriteOp> ops = {
        {3, block.data(), 1}, {4, block.data(), 1}, bad};
    EXPECT_EQ(dev_->WriteBatch(ops).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(dev_->commit_epoch(), epoch);
    EXPECT_EQ(dev_->stats().writes, before.writes);
    EXPECT_EQ(dev_->stats().blocks_written, before.blocks_written);
    EXPECT_EQ(clock_.now(), t0);
    EXPECT_EQ(trace_.size(), 0u);
    std::vector<uint8_t> back(blk::kBlockSize, 1);
    model_.PeekSector(3 * blk::kSectorsPerBlock, back);
    EXPECT_EQ(back, std::vector<uint8_t>(blk::kBlockSize, 0));
  }
  if (flash()) {
    EXPECT_EQ(flash_->flash_stats().write_requests, 1u);
  }
  ASSERT_TRUE(dev_->WriteBlock(8, block).ok());
  EXPECT_EQ(dev_->commit_epoch(), 2u);
}

INSTANTIATE_TEST_SUITE_P(BothMedia, BlockDeviceTest,
                         ::testing::Values(Media::kSpinning, Media::kFlash),
                         [](const auto& param_info) -> std::string {
                           return param_info.param == Media::kFlash
                                      ? "Flash"
                                      : "Spinning";
                         });

}  // namespace
}  // namespace cffs
