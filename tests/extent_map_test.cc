// Unit tests for the extent-based block mapping (kInodeFlagExtents):
// sequential-growth coalescing, indirect-block spill, truncate, ForEach,
// and the end-to-end paths — remount round-trips of extent images and
// fsck on both file systems with extents enabled.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/fs/common/extent_map.h"
#include "src/fsck/fsck.h"
#include "src/sim/sim_env.h"

namespace cffs::fs {
namespace {

// Grants runs of up to `grant_cap` blocks and records frees; `gap` > 0
// breaks physical adjacency between calls so every allocation starts a new
// extent.
class FakeHost final : public BmapHost {
 public:
  explicit FakeHost(cache::BufferCache& cache) : BmapHost(cache) {}

  Result<BlockRun> AllocData(uint64_t, uint32_t want) override {
    return TakeRun(want > grant_cap ? grant_cap : want);
  }
  Result<uint32_t> AllocMapBlock() override { return TakeRun(1).start; }
  Status FreeBlock(uint32_t bno) override {
    freed.insert(bno);
    return OkStatus();
  }
  Status DirtyMapBlock(cache::BufferRef& ref) override {
    cache().MarkDirty(ref);
    return OkStatus();
  }

  uint32_t next_block = 1000;
  uint32_t gap = 0;
  uint32_t grant_cap = 1;  // blocks granted per AllocData call
  std::set<uint32_t> freed;

 private:
  BlockRun TakeRun(uint32_t count) {
    next_block += gap;
    BlockRun r{next_block, count};
    next_block += count;
    return r;
  }
};

class ExtentMapTest : public ::testing::Test {
 protected:
  ExtentMapTest()
      : model_(disk::TestDisk(2048, 8, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 4096),
        host_(cache_) {
    ino_.flags |= kInodeFlagExtents;
  }

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  FakeHost host_;
  InodeData ino_;
};

TEST_F(ExtentMapTest, ReadOfUnmappedIsHole) {
  for (uint64_t idx : std::vector<uint64_t>{0, 7, 512, kMaxFileBlocks - 1}) {
    auto r = BmapRead(cache_, ino_, idx);
    ASSERT_TRUE(r.ok()) << idx;
    EXPECT_EQ(*r, 0u) << idx;
  }
}

TEST_F(ExtentMapTest, IndexPastMaxRejected) {
  EXPECT_EQ(BmapRead(cache_, ino_, kMaxFileBlocks).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(BmapAlloc(host_, &ino_, kMaxFileBlocks, nullptr).status().code(),
            ErrorCode::kOutOfRange);
}

TEST_F(ExtentMapTest, SequentialGrowthCoalescesIntoOneExtent) {
  // One block per call, physically adjacent: the map must merge them.
  std::vector<uint32_t> blocks;
  for (uint64_t idx = 0; idx < 10; ++idx) {
    bool dirtied = false;
    auto b = BmapAlloc(host_, &ino_, idx, &dirtied);
    ASSERT_TRUE(b.ok()) << idx;
    EXPECT_TRUE(dirtied) << idx;
    blocks.push_back(*b);
  }
  for (uint64_t idx = 0; idx < 10; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino_, idx), blocks[idx]) << idx;
  }
  auto list = ExtentList(cache_, ino_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].logical, 0u);
  EXPECT_EQ((*list)[0].count, 10u);
  EXPECT_EQ(ino_.indirect, 0u);
  // Re-alloc of a mapped index returns the same block, no new extent.
  EXPECT_EQ(*BmapAlloc(host_, &ino_, 4, nullptr), blocks[4]);
  EXPECT_EQ(ExtentList(cache_, ino_)->size(), 1u);
}

TEST_F(ExtentMapTest, MultiBlockRunsMapAllTheirBlocks) {
  host_.grant_cap = 8;  // allocator grants 8-block runs
  ASSERT_TRUE(BmapAlloc(host_, &ino_, 0, nullptr).ok());
  auto list = ExtentList(cache_, ino_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  const ExtentOnDisk e = (*list)[0];
  EXPECT_EQ(e.count, 8u);
  for (uint32_t i = 0; i < e.count; ++i) {
    EXPECT_EQ(*BmapRead(cache_, ino_, i), e.start + i) << i;
  }
}

TEST_F(ExtentMapTest, DiscontiguousRunsSpillIntoIndirectBlock) {
  host_.gap = 5;  // every run physically disjoint -> no merging
  const uint32_t n = kDirectExtents + 12;
  std::vector<uint32_t> blocks;
  for (uint64_t idx = 0; idx < n; ++idx) {
    auto b = BmapAlloc(host_, &ino_, idx, nullptr);
    ASSERT_TRUE(b.ok()) << idx;
    blocks.push_back(*b);
  }
  EXPECT_NE(ino_.indirect, 0u);
  for (uint64_t idx = 0; idx < n; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino_, idx), blocks[idx]) << idx;
  }
  auto list = ExtentList(cache_, ino_);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), static_cast<size_t>(n));
}

TEST_F(ExtentMapTest, ForEachVisitsEveryMappingAndTheIndirectBlock) {
  host_.gap = 3;
  const uint32_t n = kDirectExtents + 4;
  std::map<uint64_t, uint32_t> want;
  for (uint64_t idx = 0; idx < n; ++idx) {
    auto b = BmapAlloc(host_, &ino_, idx, nullptr);
    ASSERT_TRUE(b.ok());
    want[idx] = *b;
  }
  std::map<uint64_t, uint32_t> got;
  uint32_t meta_blocks = 0;
  auto st = BmapForEach(cache_, ino_, [&](uint64_t idx, uint32_t bno) -> Status {
    if (idx == UINT64_MAX) {
      ++meta_blocks;
      EXPECT_EQ(bno, ino_.indirect);
    } else {
      got[idx] = bno;
    }
    return OkStatus();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(meta_blocks, 1u);
}

TEST_F(ExtentMapTest, TruncateFreesTailAndKeepsHead) {
  std::vector<uint32_t> blocks;
  for (uint64_t idx = 0; idx < 10; ++idx) {
    blocks.push_back(*BmapAlloc(host_, &ino_, idx, nullptr));
  }
  ASSERT_TRUE(BmapTruncate(host_, &ino_, 4).ok());
  for (uint64_t idx = 0; idx < 4; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino_, idx), blocks[idx]) << idx;
  }
  for (uint64_t idx = 4; idx < 10; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino_, idx), 0u) << idx;
    EXPECT_TRUE(host_.freed.count(blocks[idx])) << idx;
  }
  for (uint64_t idx = 0; idx < 4; ++idx) {
    EXPECT_FALSE(host_.freed.count(blocks[idx])) << idx;
  }
}

TEST_F(ExtentMapTest, TruncateToZeroFreesEverythingIncludingIndirect) {
  host_.gap = 5;
  const uint32_t n = kDirectExtents + 6;
  std::vector<uint32_t> blocks;
  for (uint64_t idx = 0; idx < n; ++idx) {
    blocks.push_back(*BmapAlloc(host_, &ino_, idx, nullptr));
  }
  const uint32_t indirect = ino_.indirect;
  ASSERT_NE(indirect, 0u);
  ASSERT_TRUE(BmapTruncate(host_, &ino_, 0).ok());
  EXPECT_EQ(ino_.indirect, 0u);
  EXPECT_TRUE(host_.freed.count(indirect));
  for (uint32_t b : blocks) EXPECT_TRUE(host_.freed.count(b)) << b;
  for (uint64_t idx = 0; idx < n; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino_, idx), 0u) << idx;
  }
}

TEST_F(ExtentMapTest, AppendMappingRebuildsAMap) {
  // The C-FFS migration path: record pre-allocated blocks one by one.
  bool dirtied = false;
  for (uint64_t idx = 0; idx < 6; ++idx) {
    ASSERT_TRUE(ExtentAppendMapping(host_, &ino_, idx,
                                    2000 + static_cast<uint32_t>(idx),
                                    &dirtied)
                    .ok());
  }
  EXPECT_TRUE(dirtied);
  auto list = ExtentList(cache_, ino_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);  // adjacent appends coalesce
  for (uint64_t idx = 0; idx < 6; ++idx) {
    EXPECT_EQ(*BmapRead(cache_, ino_, idx), 2000 + idx) << idx;
  }
  // Re-append of an existing mapping is a no-op; a conflicting one fails.
  EXPECT_TRUE(ExtentAppendMapping(host_, &ino_, 2, 2002, nullptr).ok());
  EXPECT_EQ(ExtentAppendMapping(host_, &ino_, 2, 9999, nullptr).code(),
            ErrorCode::kCorrupt);
}

// --- End-to-end: extent images through the full stack -------------------

std::unique_ptr<sim::SimEnv> MakeExtentEnv(sim::FsKind kind) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  config.extent_alloc = true;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok());
  return std::move(*env);
}

std::vector<uint8_t> Payload(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return v;
}

class ExtentEndToEndTest : public ::testing::TestWithParam<sim::FsKind> {};

TEST_P(ExtentEndToEndTest, RemountRoundTrip) {
  auto env = MakeExtentEnv(GetParam());
  const auto small = Payload(1024, 1);
  const auto medium = Payload(40 * 1024, 2);
  const auto large = Payload(200 * 1024, 3);  // spills past direct extents
  {
    auto& pre = env->path();
    ASSERT_TRUE(pre.MkdirAll("/d").ok());
    ASSERT_TRUE(pre.WriteFile("/d/small", small).ok());
    ASSERT_TRUE(pre.WriteFile("/d/medium", medium).ok());
    ASSERT_TRUE(pre.WriteFile("/d/large", large).ok());
  }
  ASSERT_TRUE(env->Remount().ok());
  auto& p = env->path();  // Remount rebuilds the PathOps object
  EXPECT_EQ(*p.ReadFile("/d/small"), small);
  EXPECT_EQ(*p.ReadFile("/d/medium"), medium);
  EXPECT_EQ(*p.ReadFile("/d/large"), large);
  // The remounted superblock must remember extent_alloc: files created
  // after the remount still grow and read back fine.
  ASSERT_TRUE(p.WriteFile("/d/after", medium).ok());
  EXPECT_EQ(*p.ReadFile("/d/after"), medium);
  // Overwrite + truncate through the extent path.
  ASSERT_TRUE(p.WriteFile("/d/large", small).ok());
  EXPECT_EQ(*p.ReadFile("/d/large"), small);
  ASSERT_TRUE(p.Unlink("/d/medium").ok());
  EXPECT_FALSE(p.ReadFile("/d/medium").ok());
}

TEST_P(ExtentEndToEndTest, FsckPassesOnExtentImages) {
  auto env = MakeExtentEnv(GetParam());
  auto& p = env->path();
  ASSERT_TRUE(p.MkdirAll("/a/b").ok());
  for (int i = 0; i < 20; ++i) {
    const auto data = Payload(1024 * (1 + i % 7), static_cast<uint8_t>(i));
    ASSERT_TRUE(p.WriteFile("/a/f" + std::to_string(i), data).ok());
  }
  ASSERT_TRUE(p.WriteFile("/a/b/big", Payload(200 * 1024, 9)).ok());
  ASSERT_TRUE(p.Unlink("/a/f3").ok());
  ASSERT_TRUE(env->fs()->Sync().ok());
  auto report = fsck::Check(env->fs_base(), {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean) << report->problems.front();
}

INSTANTIATE_TEST_SUITE_P(BothFileSystems, ExtentEndToEndTest,
                         ::testing::Values(sim::FsKind::kFfs,
                                           sim::FsKind::kCffs),
                         [](const auto& param_info) -> std::string {
                           return param_info.param == sim::FsKind::kFfs
                                      ? "Ffs"
                                      : "Cffs";
                         });

}  // namespace
}  // namespace cffs::fs
