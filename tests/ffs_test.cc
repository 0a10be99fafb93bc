// FFS-specific behaviour: static inode tables, inode bitmap management,
// directory spreading, ordered synchronous write counts.
#include <gtest/gtest.h>

#include <set>

#include "src/fs/ffs/ffs.h"
#include "src/sim/sim_env.h"

namespace cffs {
namespace {

using fs::FfsFileSystem;

class FfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);
    config.blocks_per_cg = 1024;
    auto env = sim::SimEnv::Create(sim::FsKind::kFfs, config);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(*env);
    ffs_ = static_cast<FfsFileSystem*>(env_->fs());
  }

  std::unique_ptr<sim::SimEnv> env_;
  FfsFileSystem* ffs_ = nullptr;
};

TEST_F(FfsTest, RootIsInodeOne) {
  EXPECT_EQ(ffs_->root(), FfsFileSystem::kRootInum);
  EXPECT_TRUE(*ffs_->InodeIsAllocated(FfsFileSystem::kRootInum));
}

TEST_F(FfsTest, InodeLocationMathIsConsistent) {
  // Two inodes in the same table block map to different offsets; inodes
  // 32 apart land in adjacent blocks (32 inodes of 128 B per 4 KB block).
  uint32_t b1, o1, b2, o2, b3, o3;
  ASSERT_TRUE(ffs_->LocateInode(1, &b1, &o1).ok());
  ASSERT_TRUE(ffs_->LocateInode(2, &b2, &o2).ok());
  ASSERT_TRUE(ffs_->LocateInode(33, &b3, &o3).ok());
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(o2 - o1, fs::kInodeSize);
  EXPECT_EQ(b3, b1 + 1);
}

TEST_F(FfsTest, OutOfRangeInodeRejected) {
  uint32_t b, o;
  EXPECT_FALSE(ffs_->LocateInode(0, &b, &o).ok());
  const uint64_t max = static_cast<uint64_t>(ffs_->cg_count()) *
                       ffs_->inodes_per_cg();
  EXPECT_TRUE(ffs_->LocateInode(max, &b, &o).ok());
  EXPECT_FALSE(ffs_->LocateInode(max + 1, &b, &o).ok());
}

TEST_F(FfsTest, SequentialCreatesShareInodeTableBlocks) {
  // First-fit inode allocation: files created in the same directory get
  // consecutive inode numbers, so 32 of them share one table block.
  std::vector<fs::InodeNum> inos;
  for (int i = 0; i < 32; ++i) {
    auto f = ffs_->Create(ffs_->root(), "f" + std::to_string(i));
    ASSERT_TRUE(f.ok());
    inos.push_back(*f);
  }
  std::set<uint32_t> blocks;
  for (fs::InodeNum num : inos) {
    uint32_t b, o;
    ASSERT_TRUE(ffs_->LocateInode(num, &b, &o).ok());
    blocks.insert(b);
  }
  EXPECT_LE(blocks.size(), 2u);
}

TEST_F(FfsTest, DirectoriesSpreadAcrossCylinderGroups) {
  std::set<uint32_t> cgs;
  for (int i = 0; i < 8; ++i) {
    auto d = ffs_->Mkdir(ffs_->root(), "d" + std::to_string(i));
    ASSERT_TRUE(d.ok());
    cgs.insert(static_cast<uint32_t>((*d - 1) / ffs_->inodes_per_cg()));
  }
  EXPECT_GT(cgs.size(), 1u);
}

TEST_F(FfsTest, FilesStayInDirectoryCylinderGroup) {
  auto d = ffs_->Mkdir(ffs_->root(), "d");
  ASSERT_TRUE(d.ok());
  const uint32_t dir_cg = static_cast<uint32_t>((*d - 1) / ffs_->inodes_per_cg());
  for (int i = 0; i < 10; ++i) {
    auto f = ffs_->Create(*d, "f" + std::to_string(i));
    ASSERT_TRUE(f.ok());
    EXPECT_EQ((*f - 1) / ffs_->inodes_per_cg(), dir_cg);
  }
}

TEST_F(FfsTest, CreateIssuesTwoOrderedSyncWrites) {
  // Steady state (a create that grows the directory pays one more for the
  // directory inode).
  ASSERT_TRUE(ffs_->Create(ffs_->root(), "warm").ok());
  const uint64_t syncs0 = ffs_->op_stats().sync_metadata_writes;
  ASSERT_TRUE(ffs_->Create(ffs_->root(), "f").ok());
  EXPECT_EQ(ffs_->op_stats().sync_metadata_writes - syncs0, 2u);
}

TEST_F(FfsTest, DeleteIssuesThreeOrderedSyncWrites) {
  ASSERT_TRUE(env_->path().WriteFile("/f", std::vector<uint8_t>(1024)).ok());
  const uint64_t syncs0 = ffs_->op_stats().sync_metadata_writes;
  ASSERT_TRUE(ffs_->Unlink(ffs_->root(), "f").ok());
  // dir block, truncate-time inode, inode deallocation.
  EXPECT_EQ(ffs_->op_stats().sync_metadata_writes - syncs0, 3u);
}

TEST_F(FfsTest, DelayedPolicySuppressesSyncWrites) {
  env_->fs()->op_stats().Reset();
  static_cast<fs::FsBase*>(env_->fs())
      ->set_metadata_policy(fs::MetadataPolicy::kDelayed);
  ASSERT_TRUE(ffs_->Create(ffs_->root(), "f").ok());
  ASSERT_TRUE(ffs_->Unlink(ffs_->root(), "f").ok());
  EXPECT_EQ(ffs_->op_stats().sync_metadata_writes, 0u);
}

TEST_F(FfsTest, InodeBitmapTracksAllocation) {
  auto f = ffs_->Create(ffs_->root(), "f");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(*ffs_->InodeIsAllocated(*f));
  ASSERT_TRUE(ffs_->Unlink(ffs_->root(), "f").ok());
  EXPECT_FALSE(*ffs_->InodeIsAllocated(*f));
}

TEST_F(FfsTest, InodeNumbersReusedAfterFree) {
  auto a = ffs_->Create(ffs_->root(), "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ffs_->Unlink(ffs_->root(), "a").ok());
  auto b = ffs_->Create(ffs_->root(), "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
}

TEST_F(FfsTest, InodeExhaustionGivesNoSpace) {
  // Tiny FS: 15 cylinder groups x 512 inodes; exhaust them.
  const uint64_t max = static_cast<uint64_t>(ffs_->cg_count()) *
                       ffs_->inodes_per_cg();
  // Creating that many files in one directory is slow-ish but fine at this
  // scale; use several directories to stay realistic.
  uint64_t created = 0;
  Status last = OkStatus();
  for (uint64_t d = 0; last.ok() && d < 64; ++d) {
    auto dir = ffs_->Mkdir(ffs_->root(), "d" + std::to_string(d));
    if (!dir.ok()) {
      last = dir.status();
      break;
    }
    ++created;
    for (int i = 0; i < 200; ++i) {
      auto f = ffs_->Create(*dir, "f" + std::to_string(i));
      if (!f.ok()) {
        last = f.status();
        break;
      }
      ++created;
    }
  }
  EXPECT_EQ(last.code(), ErrorCode::kNoSpace);
  EXPECT_GE(created, max - ffs_->inodes_per_cg());
}

TEST_F(FfsTest, DataBlocksAllocatedNearPredecessor) {
  auto f = ffs_->Create(ffs_->root(), "f");
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> data(10 * fs::kBlockSize, 1);
  ASSERT_TRUE(ffs_->Write(*f, 0, data).ok());
  auto ino = ffs_->LoadInode(*f);
  ASSERT_TRUE(ino.ok());
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(ino->direct[i], ino->direct[i - 1] + 1) << i;
  }
}

TEST_F(FfsTest, MountRejectsForeignSuperblock) {
  // Formatting C-FFS then mounting as FFS must fail on the magic number.
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(256, 4, 64);
  config.blocks_per_cg = 1024;
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE((*env)->fs()->Sync().ok());
  sim::SimEnv& e = **env;
  auto mounted = FfsFileSystem::Mount(&e.cache(), &e.readahead(), &e.clock(),
                                      fs::MetadataPolicy::kSynchronous);
  EXPECT_EQ(mounted.status().code(), ErrorCode::kCorrupt);
}

}  // namespace
}  // namespace cffs
