// Unit tests for the cylinder-group allocator, including the C-FFS
// reservation (group extent) machinery.
#include <gtest/gtest.h>

#include <set>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/fs/common/allocator.h"

namespace cffs::fs {
namespace {

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest()
      : model_(disk::TestDisk(1024, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 512) {
    // Two cylinder groups of 512 blocks, C-FFS-style layout (bitmap,
    // reservation bitmap, then data).
    std::vector<CgLayout> layouts;
    for (uint32_t cg = 0; cg < 2; ++cg) {
      CgLayout g;
      g.first_block = 1 + cg * 512;
      g.blocks = 512;
      g.bitmap_block = g.first_block;
      g.resv_block = g.first_block + 1;
      g.data_start = g.first_block + 2;
      layouts.push_back(g);
    }
    alloc_ = std::make_unique<CgAllocator>(&cache_, layouts);
    EXPECT_TRUE(alloc_->FormatBitmaps().ok());
  }

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  std::unique_ptr<CgAllocator> alloc_;
};

TEST_F(AllocatorTest, FreeCountAfterFormat) {
  EXPECT_EQ(alloc_->free_blocks(), 2u * (512 - 2));
}

TEST_F(AllocatorTest, AllocNearPrefersGoal) {
  auto b = alloc_->AllocNear(100);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 100u);
  // Goal taken: next request for the same goal gets the next free block.
  auto c = alloc_->AllocNear(100);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 101u);
}

TEST_F(AllocatorTest, MetadataBlocksNeverAllocated) {
  std::set<uint32_t> got;
  for (int i = 0; i < 1020; ++i) {
    auto b = alloc_->AllocNear(0);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(got.insert(*b).second) << "duplicate " << *b;
    // Never a bitmap/reservation block, never block 0.
    EXPECT_GE(*b % 512, 3u == 0 ? 0u : 0u);
    EXPECT_NE(*b, 0u);
    EXPECT_NE(*b, 1u);
    EXPECT_NE(*b, 2u);
    EXPECT_NE(*b, 513u);
    EXPECT_NE(*b, 514u);
  }
  EXPECT_EQ(alloc_->free_blocks(), 0u);
  EXPECT_EQ(alloc_->AllocNear(0).status().code(), ErrorCode::kNoSpace);
}

TEST_F(AllocatorTest, FreeMakesBlockReusable) {
  auto b = alloc_->AllocNear(50);
  ASSERT_TRUE(b.ok());
  const uint64_t free_before = alloc_->free_blocks();
  ASSERT_TRUE(alloc_->Free(*b).ok());
  EXPECT_EQ(alloc_->free_blocks(), free_before + 1);
  EXPECT_TRUE(*alloc_->IsFree(*b));
}

TEST_F(AllocatorTest, DoubleFreeDetected) {
  auto b = alloc_->AllocNear(50);
  ASSERT_TRUE(alloc_->Free(*b).ok());
  EXPECT_EQ(alloc_->Free(*b).code(), ErrorCode::kCorrupt);
}

TEST_F(AllocatorTest, FreeingMetadataRejected) {
  EXPECT_EQ(alloc_->Free(1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(alloc_->Free(2).code(), ErrorCode::kInvalidArgument);
}

TEST_F(AllocatorTest, ExtentIsAlignedAndReserved) {
  auto ext = alloc_->AllocExtent(0, 16, 16);
  ASSERT_TRUE(ext.ok());
  const CgLayout& g = alloc_->layout(0);
  EXPECT_EQ((*ext - g.first_block) % 16, 0u);
  EXPECT_TRUE(*alloc_->ExtentReserved(*ext, 16));
  EXPECT_TRUE(*alloc_->ExtentIdle(*ext, 16));
}

TEST_F(AllocatorTest, OrdinaryAllocationAvoidsReservedExtents) {
  auto ext = alloc_->AllocExtent(0, 16, 16);
  ASSERT_TRUE(ext.ok());
  for (int i = 0; i < 400; ++i) {
    auto b = alloc_->AllocNear(*ext);  // goal inside the extent
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(*b < *ext || *b >= *ext + 16) << *b;
  }
}

TEST_F(AllocatorTest, AllocInExtentFillsSlotsInOrder) {
  auto ext = alloc_->AllocExtent(0, 8, 8);
  ASSERT_TRUE(ext.ok());
  for (uint32_t i = 0; i < 8; ++i) {
    auto b = alloc_->AllocInExtent(*ext, 8);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, *ext + i);
  }
  EXPECT_EQ(alloc_->AllocInExtent(*ext, 8).status().code(),
            ErrorCode::kNoSpace);
  EXPECT_FALSE(*alloc_->ExtentIdle(*ext, 8));
}

TEST_F(AllocatorTest, ReleaseExtentAllowsOrdinaryReuse) {
  auto ext = alloc_->AllocExtent(0, 16, 16);
  ASSERT_TRUE(ext.ok());
  ASSERT_TRUE(alloc_->ReleaseExtent(*ext, 16).ok());
  EXPECT_FALSE(*alloc_->ExtentReserved(*ext, 16));
  // Now an ordinary allocation can land inside.
  auto b = alloc_->AllocNear(*ext);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *ext);
}

TEST_F(AllocatorTest, ExtentsDoNotOverlap) {
  std::set<uint32_t> starts;
  for (;;) {
    auto ext = alloc_->AllocExtent(0, 16, 16);
    if (!ext.ok()) {
      EXPECT_EQ(ext.status().code(), ErrorCode::kNoSpace);
      break;
    }
    EXPECT_TRUE(starts.insert(*ext).second);
    // Occupy a slot so the idle-reservation sweep doesn't reclaim the
    // extent (an empty reservation is reclaimable by design).
    ASSERT_TRUE(alloc_->AllocInExtent(*ext, 16).ok());
  }
  // Both cylinder groups covered: ~(510/16)*2 extents.
  EXPECT_GE(starts.size(), 60u);
}

TEST_F(AllocatorTest, SpillsToSecondCylinderGroup) {
  // Exhaust cg 0.
  uint32_t in_cg0 = 0;
  for (;;) {
    auto b = alloc_->AllocNear(3);
    ASSERT_TRUE(b.ok());
    if (*b >= 513) break;
    ++in_cg0;
  }
  EXPECT_EQ(in_cg0, 510u);
}

TEST_F(AllocatorTest, RecountMatchesIncrementalCount) {
  for (int i = 0; i < 37; ++i) ASSERT_TRUE(alloc_->AllocNear(0).ok());
  const uint64_t incremental = alloc_->free_blocks();
  ASSERT_TRUE(alloc_->RecountFree().ok());
  EXPECT_EQ(alloc_->free_blocks(), incremental);
}

TEST_F(AllocatorTest, MarkUsedBehavesLikeAlloc) {
  ASSERT_TRUE(alloc_->MarkUsed(77).ok());
  EXPECT_FALSE(*alloc_->IsFree(77));
  EXPECT_EQ(alloc_->MarkUsed(77).code(), ErrorCode::kCorrupt);
}

// CgOf computes the group; a linear scan of the layouts is the reference,
// with group 0 for block 0 and for blocks past the last group.
TEST_F(AllocatorTest, CgOfMatchesALinearScan) {
  constexpr uint32_t kGroups = 7;
  constexpr uint32_t kBlocks = 100;
  std::vector<CgLayout> layouts;
  for (uint32_t cg = 0; cg < kGroups; ++cg) {
    CgLayout g;
    g.first_block = 1 + cg * kBlocks;
    g.blocks = kBlocks;
    g.bitmap_block = g.first_block;
    g.data_start = g.first_block + 1;
    layouts.push_back(g);
  }
  const CgAllocator alloc(&cache_, layouts);
  for (uint32_t bno = 0; bno < 1 + kGroups * kBlocks + 2 * kBlocks; ++bno) {
    uint32_t scanned = 0;
    for (uint32_t cg = 0; cg < kGroups; ++cg) {
      if (bno >= layouts[cg].first_block &&
          bno < layouts[cg].first_block + layouts[cg].blocks) {
        scanned = cg;
      }
    }
    ASSERT_EQ(alloc.CgOf(bno), scanned) << "block " << bno;
  }
  EXPECT_EQ(alloc.CgOf(UINT32_MAX), 0u);
}

}  // namespace
}  // namespace cffs::fs
