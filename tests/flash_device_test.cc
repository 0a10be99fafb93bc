// Unit tests for the flash/NVMe timing model: channel-parallelism math,
// queue-depth saturation, steady-state GC erases, the exact busy-time
// decomposition (busy == overhead + wait + read + program + erase to the
// nanosecond) and run-to-run determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/disk/disk_model.h"
#include "src/flash/flash_device.h"

namespace cffs::flash {
namespace {

// Spec with round numbers so expected window times are exact.
FlashSpec MathSpec(uint32_t channels, uint32_t queue_depth) {
  FlashSpec spec;
  spec.channels = channels;
  spec.queue_depth = queue_depth;
  spec.read_latency = SimTime::Micros(60);
  spec.program_latency = SimTime::Micros(300);
  spec.erase_latency = SimTime::Millis(2);
  spec.command_overhead = SimTime::Micros(10);
  spec.pages_per_erase_block = 1u << 30;  // no GC unless a test asks for it
  return spec;
}

class FlashHarness {
 public:
  explicit FlashHarness(FlashSpec spec)
      : model_(disk::TestDisk(1024, 4, 64), &clock_),
        dev_(&model_, &clock_, spec) {}

  SimClock clock_;
  disk::DiskModel model_;
  FlashDevice dev_;
};

int64_t BusySum(const FlashStats& s) {
  return s.overhead_time.nanos() + s.wait_time.nanos() +
         s.read_time.nanos() + s.program_time.nanos() + s.erase_time.nanos();
}

// 8 single-block writes to 8 distinct channels, no coalescing.
std::vector<blk::WriteOp> OnePerChannel(const std::vector<uint8_t>& block) {
  std::vector<blk::WriteOp> ops;
  for (uint64_t bno = 0; bno < 8; ++bno) {
    ops.push_back({bno, block.data(), UINT64_MAX});
  }
  return ops;
}

TEST(FlashDeviceTest, ContiguousReadStripesAcrossChannels) {
  // 8 blocks over 4 channels: 2 pages per channel, concurrent. The window
  // is the critical channel (channel 0, which also pays the command
  // overhead): overhead + 2 page reads. A serial device would take 8.
  FlashHarness h(MathSpec(/*channels=*/4, /*queue_depth=*/32));
  std::vector<uint8_t> buf(8 * blk::kBlockSize);
  const SimTime t0 = h.clock_.now();
  ASSERT_TRUE(h.dev_.ReadRun(0, 8, buf).ok());
  const int64_t elapsed = (h.clock_.now() - t0).nanos();
  const int64_t expect =
      SimTime::Micros(10).nanos() + 2 * SimTime::Micros(60).nanos();
  EXPECT_EQ(elapsed, expect);
  const FlashStats& s = h.dev_.flash_stats();
  EXPECT_EQ(s.read_requests, 1u);
  EXPECT_EQ(s.sectors_read, 8u * blk::kSectorsPerBlock);
  EXPECT_EQ(s.busy_time.nanos(), expect);
  EXPECT_EQ(s.read_time.nanos(), 2 * SimTime::Micros(60).nanos());
  EXPECT_EQ(s.wait_time.nanos(), 0);
}

TEST(FlashDeviceTest, SingleChannelDegeneratesToSerial) {
  FlashHarness h(MathSpec(/*channels=*/1, /*queue_depth=*/32));
  std::vector<uint8_t> buf(8 * blk::kBlockSize);
  const SimTime t0 = h.clock_.now();
  ASSERT_TRUE(h.dev_.ReadRun(0, 8, buf).ok());
  const int64_t expect =
      SimTime::Micros(10).nanos() + 8 * SimTime::Micros(60).nanos();
  EXPECT_EQ((h.clock_.now() - t0).nanos(), expect);
}

TEST(FlashDeviceTest, QueueDepthOneSerializesTheBatch) {
  // Same 8-command batch, QD 1 vs QD 8. At depth 1 each command waits for
  // the previous completion even though the channels are idle: 8x slower,
  // and the difference shows up as wait time on the critical channel.
  const int64_t per_cmd =
      SimTime::Micros(10).nanos() + SimTime::Micros(300).nanos();
  std::vector<uint8_t> block(blk::kBlockSize, 0xab);

  FlashHarness qd1(MathSpec(/*channels=*/8, /*queue_depth=*/1));
  SimTime t0 = qd1.clock_.now();
  ASSERT_TRUE(qd1.dev_.WriteBatch(OnePerChannel(block)).ok());
  EXPECT_EQ((qd1.clock_.now() - t0).nanos(), 8 * per_cmd);
  EXPECT_EQ(qd1.dev_.flash_stats().wait_time.nanos(), 7 * per_cmd);

  FlashHarness qd8(MathSpec(/*channels=*/8, /*queue_depth=*/8));
  t0 = qd8.clock_.now();
  ASSERT_TRUE(qd8.dev_.WriteBatch(OnePerChannel(block)).ok());
  EXPECT_EQ((qd8.clock_.now() - t0).nanos(), per_cmd);
  EXPECT_EQ(qd8.dev_.flash_stats().wait_time.nanos(), 0);
}

TEST(FlashDeviceTest, AdjacentBatchedWritesCoalesceToOneCommand) {
  FlashHarness h(MathSpec(/*channels=*/4, /*queue_depth=*/32));
  std::vector<uint8_t> block(blk::kBlockSize, 0x5a);
  std::vector<blk::WriteOp> ops;
  for (uint64_t bno = 16; bno < 24; ++bno) {
    ops.push_back({bno, block.data(), /*unit=*/7});  // same unit: coalesce
  }
  ASSERT_TRUE(h.dev_.WriteBatch(ops).ok());
  const FlashStats& s = h.dev_.flash_stats();
  EXPECT_EQ(s.write_requests, 1u);
  EXPECT_EQ(s.sectors_written, 8u * blk::kSectorsPerBlock);
  // One striped command: overhead + 2 programs on the critical channel.
  EXPECT_EQ(s.busy_time.nanos(), SimTime::Micros(10).nanos() +
                                     2 * SimTime::Micros(300).nanos());
}

TEST(FlashDeviceTest, SteadyStateGcChargesErases) {
  FlashSpec spec = MathSpec(/*channels=*/1, /*queue_depth=*/32);
  spec.pages_per_erase_block = 4;
  FlashHarness h(spec);
  std::vector<uint8_t> block(blk::kBlockSize, 0x11);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.dev_.WriteRun(i, 1, block).ok());
  }
  EXPECT_EQ(h.dev_.flash_stats().erases, 0u);
  // The 4th program on the channel pays one erase before it proceeds.
  const SimTime t0 = h.clock_.now();
  ASSERT_TRUE(h.dev_.WriteRun(3, 1, block).ok());
  const int64_t expect = SimTime::Micros(10).nanos() +
                         SimTime::Millis(2).nanos() +
                         SimTime::Micros(300).nanos();
  EXPECT_EQ((h.clock_.now() - t0).nanos(), expect);
  const FlashStats& s = h.dev_.flash_stats();
  EXPECT_EQ(s.erases, 1u);
  EXPECT_EQ(s.erase_time.nanos(), SimTime::Millis(2).nanos());
  // The GC counter is device state: it survives a stats reset.
  h.dev_.flash_stats().Reset();
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(h.dev_.WriteRun(i, 1, block).ok());
  }
  EXPECT_EQ(h.dev_.flash_stats().erases, 1u);
}

TEST(FlashDeviceTest, BusyDecompositionIsExact) {
  // A messy mixed workload on awkward parameters; the invariant must hold
  // to the nanosecond.
  FlashHarness h(MathSpec(/*channels=*/3, /*queue_depth=*/2));
  std::vector<uint8_t> block(blk::kBlockSize, 0x77);
  std::vector<uint8_t> run(7 * blk::kBlockSize, 1);
  std::vector<uint8_t> buf(16 * blk::kBlockSize);
  ASSERT_TRUE(h.dev_.WriteRun(5, 7, run).ok());
  ASSERT_TRUE(h.dev_.ReadRun(5, 7, buf).ok());
  std::vector<blk::WriteOp> ops;
  for (uint64_t bno : {2u, 9u, 4u, 4096u, 17u, 18u, 19u, 3u}) {
    ops.push_back({bno, block.data(), UINT64_MAX});
  }
  ASSERT_TRUE(h.dev_.WriteBatch(ops).ok());
  ASSERT_TRUE(h.dev_.ReadRun(0, 16, buf).ok());
  const FlashStats& s = h.dev_.flash_stats();
  EXPECT_EQ(s.busy_time.nanos(), BusySum(s));
  EXPECT_GT(s.busy_time.nanos(), 0);
  EXPECT_EQ(s.total_requests(), 1u + 1u + 8u + 1u);
}

TEST(FlashDeviceTest, TimingIsDeterministic) {
  auto run = [](FlashHarness* h) {
    std::vector<uint8_t> block(blk::kBlockSize, 0x3c);
    std::vector<uint8_t> six(6 * blk::kBlockSize, 2);
    std::vector<uint8_t> buf(8 * blk::kBlockSize);
    EXPECT_TRUE(h->dev_.WriteRun(10, 6, six).ok());
    std::vector<blk::WriteOp> ops;
    for (uint64_t bno : {1u, 8u, 3u, 3000u}) {
      ops.push_back({bno, block.data(), UINT64_MAX});
    }
    EXPECT_TRUE(h->dev_.WriteBatch(ops).ok());
    EXPECT_TRUE(h->dev_.ReadRun(8, 8, buf).ok());
  };
  FlashSpec spec = MathSpec(/*channels=*/5, /*queue_depth=*/3);
  spec.pages_per_erase_block = 4;
  FlashHarness a(spec), b(spec);
  run(&a);
  run(&b);
  EXPECT_EQ(a.clock_.now().nanos(), b.clock_.now().nanos());
  const FlashStats &sa = a.dev_.flash_stats(), &sb = b.dev_.flash_stats();
  EXPECT_EQ(sa.busy_time.nanos(), sb.busy_time.nanos());
  EXPECT_EQ(sa.wait_time.nanos(), sb.wait_time.nanos());
  EXPECT_EQ(sa.erases, sb.erases);
}

TEST(FlashDeviceTest, DataRoundTripsThroughTheSectorStore) {
  FlashHarness h(MathSpec(/*channels=*/4, /*queue_depth=*/32));
  std::vector<uint8_t> data(5 * blk::kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13);
  }
  ASSERT_TRUE(h.dev_.WriteRun(40, 5, data).ok());
  std::vector<uint8_t> back(5 * blk::kBlockSize, 0);
  ASSERT_TRUE(h.dev_.ReadRun(40, 5, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(h.dev_.stats().reads, 1u);
  EXPECT_EQ(h.dev_.stats().writes, 1u);
  EXPECT_EQ(h.dev_.stats().blocks_written, 5u);
}

// A sector fault in the middle of a multi-block run fails the whole run
// before any time passes; clearing it lets the same run through.
TEST(FlashDeviceTest, InjectedReadErrorFailsTheRunWithoutTime) {
  FlashHarness h(MathSpec(/*channels=*/4, /*queue_depth=*/32));
  std::vector<uint8_t> data(4 * blk::kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(h.dev_.WriteRun(8, 4, data).ok());
  const uint64_t bad = 10 * blk::kSectorsPerBlock + 3;  // inside block 10
  h.model_.InjectReadError(bad);

  std::vector<uint8_t> out(data.size());
  const SimTime t0 = h.clock_.now();
  const int64_t busy = h.dev_.flash_stats().busy_time.nanos();
  EXPECT_EQ(h.dev_.ReadRun(8, 4, out).code(), ErrorCode::kIoError);
  EXPECT_EQ(h.clock_.now(), t0);
  EXPECT_EQ(h.dev_.flash_stats().read_requests, 0u);
  EXPECT_EQ(h.dev_.flash_stats().busy_time.nanos(), busy);

  // Runs that stop short of the bad sector are unaffected.
  ASSERT_TRUE(h.dev_.ReadRun(8, 2, out).ok());
  EXPECT_GT(h.clock_.now(), t0);

  h.model_.ClearReadError(bad);
  std::fill(out.begin(), out.end(), 0);
  ASSERT_TRUE(h.dev_.ReadRun(8, 4, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FlashDeviceTest, BoundsAndBufferChecks) {
  FlashHarness h(MathSpec(4, 32));
  std::vector<uint8_t> one(blk::kBlockSize);
  EXPECT_EQ(h.dev_.ReadRun(0, 0, one).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(h.dev_.ReadRun(0, 2, one).code(), ErrorCode::kInvalidArgument);
  const uint64_t past = h.dev_.block_count();
  EXPECT_EQ(h.dev_.WriteRun(past, 1, one).code(), ErrorCode::kOutOfRange);
}

}  // namespace
}  // namespace cffs::flash
