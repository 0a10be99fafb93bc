// Unit tests for the direct/indirect block-mapping logic.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/fs/common/block_map.h"

namespace cffs::fs {
namespace {

// Hands out consecutive block numbers and records frees.
class FakeHost final : public BmapHost {
 public:
  explicit FakeHost(cache::BufferCache& cache) : BmapHost(cache) {}

  Result<BlockRun> AllocData(uint64_t, uint32_t) override {
    return BlockRun{next_block++, 1};
  }
  Result<uint32_t> AllocMapBlock() override { return next_block++; }
  Status FreeBlock(uint32_t bno) override {
    freed.insert(bno);
    return OkStatus();
  }
  Status DirtyMapBlock(cache::BufferRef& ref) override {
    cache().MarkDirty(ref);
    return OkStatus();
  }

  uint32_t next_block = 1000;
  std::set<uint32_t> freed;
};

class BlockMapTest : public ::testing::Test {
 protected:
  BlockMapTest()
      : model_(disk::TestDisk(2048, 8, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 4096),
        host_(cache_) {}

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  FakeHost host_;
};

TEST_F(BlockMapTest, ReadOfUnmappedIsHole) {
  InodeData ino;
  for (uint64_t idx : std::vector<uint64_t>{0, 5, 20, 5000, kMaxFileBlocks - 1}) {
    auto r = BmapRead(cache_, ino, idx);
    ASSERT_TRUE(r.ok()) << idx;
    EXPECT_EQ(*r, 0u) << idx;
  }
}

TEST_F(BlockMapTest, IndexPastMaxRejected) {
  InodeData ino;
  EXPECT_EQ(BmapRead(cache_, ino, kMaxFileBlocks).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(BmapAlloc(host_, &ino, kMaxFileBlocks, nullptr).status().code(),
            ErrorCode::kOutOfRange);
}

TEST_F(BlockMapTest, DirectAllocationRoundTrips) {
  InodeData ino;
  bool dirtied = false;
  auto b = BmapAlloc(host_, &ino, 3, &dirtied);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(dirtied);
  EXPECT_EQ(ino.direct[3], *b);
  EXPECT_EQ(*BmapRead(cache_, ino, 3), *b);
  // Second alloc returns the same block.
  EXPECT_EQ(*BmapAlloc(host_, &ino, 3, nullptr), *b);
}

TEST_F(BlockMapTest, SingleIndirectAllocation) {
  InodeData ino;
  const uint64_t idx = kDirectBlocks + 100;
  auto b = BmapAlloc(host_, &ino, idx, nullptr);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(ino.indirect, 0u);
  EXPECT_EQ(*BmapRead(cache_, ino, idx), *b);
  // Neighbouring indirect slot is still a hole.
  EXPECT_EQ(*BmapRead(cache_, ino, idx + 1), 0u);
}

TEST_F(BlockMapTest, DoubleIndirectAllocation) {
  InodeData ino;
  const uint64_t idx = kDirectBlocks + kPtrsPerBlock + 5 * kPtrsPerBlock + 17;
  auto b = BmapAlloc(host_, &ino, idx, nullptr);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(ino.dindirect, 0u);
  EXPECT_EQ(*BmapRead(cache_, ino, idx), *b);
  EXPECT_EQ(*BmapRead(cache_, ino, idx - 1), 0u);
  EXPECT_EQ(*BmapRead(cache_, ino, idx + 1), 0u);
}

TEST_F(BlockMapTest, DistinctIndicesGetDistinctBlocks) {
  InodeData ino;
  std::set<uint32_t> seen;
  const uint64_t picks[] = {0, 1, 11, 12, 13, kDirectBlocks + kPtrsPerBlock - 1,
                            kDirectBlocks + kPtrsPerBlock,
                            kDirectBlocks + kPtrsPerBlock + kPtrsPerBlock};
  for (uint64_t idx : picks) {
    auto b = BmapAlloc(host_, &ino, idx, nullptr);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(seen.insert(*b).second) << "duplicate for idx " << idx;
  }
}

TEST_F(BlockMapTest, TruncateToZeroFreesEverything) {
  InodeData ino;
  std::set<uint32_t> allocated;
  for (uint64_t idx : std::vector<uint64_t>{
           0, 5, 11, 12, 600,
           static_cast<uint64_t>(kDirectBlocks) + kPtrsPerBlock + 3}) {
    auto b = BmapAlloc(host_, &ino, idx, nullptr);
    ASSERT_TRUE(b.ok());
    allocated.insert(*b);
  }
  // Indirect blocks (including interior level-1 blocks) were allocated too:
  // enumerate everything the inode maps.
  allocated.clear();
  ASSERT_TRUE(BmapForEach(cache_, ino, [&](uint64_t, uint32_t bno) -> Status {
    allocated.insert(bno);
    return OkStatus();
  }).ok());
  ASSERT_TRUE(BmapTruncate(host_, &ino, 0).ok());
  EXPECT_EQ(host_.freed, allocated);
  EXPECT_EQ(ino.indirect, 0u);
  EXPECT_EQ(ino.dindirect, 0u);
  for (uint32_t d : ino.direct) EXPECT_EQ(d, 0u);
}

TEST_F(BlockMapTest, PartialTruncateKeepsPrefix) {
  InodeData ino;
  std::vector<uint32_t> blocks;
  for (uint64_t idx = 0; idx < 20; ++idx) {
    blocks.push_back(*BmapAlloc(host_, &ino, idx, nullptr));
  }
  ASSERT_TRUE(BmapTruncate(host_, &ino, 10).ok());
  for (uint64_t idx = 0; idx < 10; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino, idx), blocks[idx]) << idx;
  }
  for (uint64_t idx = 10; idx < 20; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino, idx), 0u) << idx;
    EXPECT_TRUE(host_.freed.count(blocks[idx])) << idx;
  }
  // The single-indirect block survives (blocks 12..19 freed but 10..11 —
  // wait: 12+ are indirect; keep=10 frees all indirect slots, so the
  // indirect block itself must be gone).
  EXPECT_EQ(ino.indirect, 0u);
}

TEST_F(BlockMapTest, TruncateBoundaryAtIndirectEdge) {
  InodeData ino;
  for (uint64_t idx = 0; idx < kDirectBlocks + 8; ++idx) {
    ASSERT_TRUE(BmapAlloc(host_, &ino, idx, nullptr).ok());
  }
  // Keep exactly the direct blocks plus one indirect slot.
  ASSERT_TRUE(BmapTruncate(host_, &ino, kDirectBlocks + 1).ok());
  EXPECT_NE(ino.indirect, 0u);
  EXPECT_NE(*BmapRead(cache_, ino, kDirectBlocks), 0u);
  EXPECT_EQ(*BmapRead(cache_, ino, kDirectBlocks + 1), 0u);
}

TEST_F(BlockMapTest, ForEachVisitsAllBlocksWithIndices) {
  InodeData ino;
  std::set<uint64_t> indices = {0, 7, 13, 900,
                                kDirectBlocks + kPtrsPerBlock + 42};
  std::map<uint64_t, uint32_t> expect;
  for (uint64_t idx : indices) {
    expect[idx] = *BmapAlloc(host_, &ino, idx, nullptr);
  }
  std::map<uint64_t, uint32_t> seen;
  uint32_t meta_blocks = 0;
  ASSERT_TRUE(BmapForEach(cache_, ino, [&](uint64_t idx, uint32_t bno) -> Status {
    if (idx == UINT64_MAX) {
      ++meta_blocks;
    } else {
      seen[idx] = bno;
    }
    return OkStatus();
  }).ok());
  EXPECT_EQ(seen, expect);
  // 13 and 900 need the single indirect; the big index needs the double
  // indirect + one level-1 block: 3 metadata blocks total.
  EXPECT_EQ(meta_blocks, 3u);
}

TEST_F(BlockMapTest, SparseFileOnlyAllocatesTouchedBlocks) {
  InodeData ino;
  ASSERT_TRUE(BmapAlloc(host_, &ino, 500, nullptr).ok());
  uint32_t data_blocks = 0;
  ASSERT_TRUE(BmapForEach(cache_, ino, [&](uint64_t idx, uint32_t) -> Status {
    if (idx != UINT64_MAX) ++data_blocks;
    return OkStatus();
  }).ok());
  EXPECT_EQ(data_blocks, 1u);
}

}  // namespace
}  // namespace cffs::fs
