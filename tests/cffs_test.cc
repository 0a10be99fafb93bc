// C-FFS-specific behaviour: embedded inode identity, externalization,
// explicit grouping, group I/O, migration, IFILE management.
#include <gtest/gtest.h>

#include <set>

#include "src/fs/cffs/cffs.h"
#include "src/fs/common/block_map.h"
#include "src/sim/sim_env.h"

namespace cffs {
namespace {

using fs::CffsFileSystem;
using fs::InodeNum;
using sim::FsKind;

class CffsTest : public ::testing::Test {
 protected:
  void Make(FsKind kind = FsKind::kCffs, uint16_t group_blocks = 16,
            bool extent_alloc = false) {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);
    config.blocks_per_cg = 1024;
    config.group_blocks = group_blocks;
    config.extent_alloc = extent_alloc;
    auto env = sim::SimEnv::Create(kind, config);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(*env);
    cfs_ = static_cast<CffsFileSystem*>(env_->fs());
  }

  std::vector<uint8_t> Payload(size_t n, uint8_t fill = 0x2a) {
    return std::vector<uint8_t>(n, fill);
  }

  // Runs `body` on a fresh C-FFS under each inode encoding: the classic
  // block map and extent maps (extent_alloc), the two placement paths of
  // the data-allocation hook.
  template <typename Body>
  void ForEachEncoding(uint16_t group_blocks, Body body) {
    for (const bool extents : {false, true}) {
      SCOPED_TRACE(extents ? "extent_alloc=1" : "extent_alloc=0");
      Make(FsKind::kCffs, group_blocks, extents);
      if (HasFatalFailure()) return;
      body();
    }
  }

  // Physical block holding file block `idx` of `ino`, read through the
  // encoding-aware map.
  uint32_t MappedBlock(const fs::InodeData& ino, uint64_t idx) {
    Result<uint32_t> bno = fs::BmapRead(*cfs_->buffer_cache(), ino, idx);
    EXPECT_TRUE(bno.ok()) << bno.status().ToString();
    return bno.ok() ? *bno : 0;
  }

  std::unique_ptr<sim::SimEnv> env_;
  CffsFileSystem* cfs_ = nullptr;
};

TEST_F(CffsTest, NewFilesGetEmbeddedInodes) {
  Make();
  auto f = cfs_->Create(cfs_->root(), "file");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(fs::IsEmbedded(*f));
  // Directories are externalized.
  auto d = cfs_->Mkdir(cfs_->root(), "dir");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(fs::IsEmbedded(*d));
}

TEST_F(CffsTest, EmbeddedNumberEncodesLocation) {
  Make();
  auto f = cfs_->Create(cfs_->root(), "file");
  ASSERT_TRUE(f.ok());
  const uint32_t bno = fs::EmbeddedBlock(*f);
  const uint32_t off = fs::EmbeddedOffset(*f);
  auto buf = cfs_->buffer_cache()->Get(bno);
  ASSERT_TRUE(buf.ok());
  const fs::InodeData img = fs::InodeData::Decode(buf->data(), off);
  EXPECT_EQ(img.self, *f);
  EXPECT_EQ(img.type, fs::FileType::kRegular);
}

TEST_F(CffsTest, EmbeddedDisabledUsesExternal) {
  Make(FsKind::kGroupOnly);
  auto f = cfs_->Create(cfs_->root(), "file");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(fs::IsEmbedded(*f));
}

TEST_F(CffsTest, CreateCostsOneSyncWriteWithEmbedding) {
  // Steady state: warm the directory first (its first create also pays a
  // directory-growth inode write).
  Make();
  ASSERT_TRUE(cfs_->Create(cfs_->root(), "warm").ok());
  const uint64_t syncs0 = cfs_->op_stats().sync_metadata_writes;
  ASSERT_TRUE(cfs_->Create(cfs_->root(), "one").ok());
  EXPECT_EQ(cfs_->op_stats().sync_metadata_writes - syncs0, 1u);

  Make(FsKind::kGroupOnly);
  ASSERT_TRUE(cfs_->Create(cfs_->root(), "warm").ok());
  const uint64_t syncs1 = cfs_->op_stats().sync_metadata_writes;
  ASSERT_TRUE(cfs_->Create(cfs_->root(), "one").ok());
  EXPECT_EQ(cfs_->op_stats().sync_metadata_writes - syncs1, 2u);
}

TEST_F(CffsTest, DeleteCostsOneSyncWriteWithEmbedding) {
  Make();
  ASSERT_TRUE(env_->path().WriteFile("/f", Payload(1024)).ok());
  const uint64_t syncs0 = cfs_->op_stats().sync_metadata_writes;
  ASSERT_TRUE(cfs_->Unlink(cfs_->root(), "f").ok());
  EXPECT_EQ(cfs_->op_stats().sync_metadata_writes - syncs0, 1u);
}

TEST_F(CffsTest, LinkExternalizesEmbeddedInode) {
  Make();
  auto f = cfs_->Create(cfs_->root(), "orig");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs::IsEmbedded(*f));
  ASSERT_TRUE(cfs_->Write(*f, 0, Payload(100, 0x42)).ok());
  ASSERT_TRUE(cfs_->Link(cfs_->root(), "alias", *f).ok());

  auto orig = cfs_->Lookup(cfs_->root(), "orig");
  auto alias = cfs_->Lookup(cfs_->root(), "alias");
  ASSERT_TRUE(orig.ok() && alias.ok());
  EXPECT_EQ(*orig, *alias);
  EXPECT_FALSE(fs::IsEmbedded(*orig));  // externalized
  EXPECT_EQ(cfs_->GetAttr(*orig)->nlink, 2u);
  // The old embedded number no longer works.
  EXPECT_FALSE(cfs_->GetAttr(*f).ok());
  // Data survived the move.
  auto data = env_->path().ReadFile("/alias");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 0x42);
}

TEST_F(CffsTest, RenameMovesEmbeddedInodeAndRenumbers) {
  Make();
  ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
  auto f = cfs_->Create(cfs_->root(), "f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(cfs_->Write(*f, 0, Payload(3000, 0x17)).ok());
  ASSERT_TRUE(env_->path().Rename("/f", "/d/g").ok());
  auto moved = env_->path().Resolve("/d/g");
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(fs::IsEmbedded(*moved));
  EXPECT_NE(*moved, *f);  // new number (new location)
  EXPECT_FALSE(cfs_->GetAttr(*f).ok());  // old number is stale
  auto data = env_->path().ReadFile("/d/g");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 3000u);
  EXPECT_EQ((*data)[0], 0x17);
}

TEST_F(CffsTest, SmallFilesOfOneDirectoryShareAGroupExtent) {
  ForEachEncoding(16, [&] {
    ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
    std::set<uint32_t> extents;
    for (int i = 0; i < 8; ++i) {
      const std::string name = "f" + std::to_string(i);
      ASSERT_TRUE(
          env_->path().WriteFile("/d/" + name, Payload(1024)).ok());
      auto ino = cfs_->Lookup(*env_->path().Resolve("/d"), name);
      ASSERT_TRUE(ino.ok());
      auto data = cfs_->LoadInode(*ino);
      ASSERT_TRUE(data.ok());
      ASSERT_NE(data->group_start, 0u) << name;
      extents.insert(data->group_start);
      // The data block lies inside the extent.
      const uint32_t bno = MappedBlock(*data, 0);
      EXPECT_GE(bno, data->group_start);
      EXPECT_LT(bno, data->group_start + data->group_len);
    }
    // 8 one-block files (+ dir blocks) fit in one 16-block extent.
    EXPECT_EQ(extents.size(), 1u);
  });
}

TEST_F(CffsTest, DifferentDirectoriesGetDifferentGroups) {
  ForEachEncoding(16, [&] {
    ASSERT_TRUE(env_->path().MkdirAll("/a").ok());
    ASSERT_TRUE(env_->path().MkdirAll("/b").ok());
    ASSERT_TRUE(env_->path().WriteFile("/a/f", Payload(1024)).ok());
    ASSERT_TRUE(env_->path().WriteFile("/b/f", Payload(1024)).ok());
    auto fa = cfs_->LoadInode(*env_->path().Resolve("/a/f"));
    auto fb = cfs_->LoadInode(*env_->path().Resolve("/b/f"));
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_NE(fa->group_start, fb->group_start);
    // Each file's block lies in its own directory's extent.
    const uint32_t ba = MappedBlock(*fa, 0);
    const uint32_t bb = MappedBlock(*fb, 0);
    EXPECT_GE(ba, fa->group_start);
    EXPECT_LT(ba, fa->group_start + fa->group_len);
    EXPECT_GE(bb, fb->group_start);
    EXPECT_LT(bb, fb->group_start + fb->group_len);
  });
}

TEST_F(CffsTest, GroupReadFetchesWholeExtentInOneCommand) {
  Make();
  ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(env_->path()
                    .WriteFile("/d/f" + std::to_string(i), Payload(1024))
                    .ok());
  }
  ASSERT_TRUE(env_->ColdCache().ok());
  env_->ResetStats();
  // Read all ten files; the directory block + data live in one extent.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(env_->path().ReadFile("/d/f" + std::to_string(i)).ok());
  }
  // Root dir block + IFILE block + reservation bitmap + two group reads:
  // a handful of commands, not one per file.
  EXPECT_LE(env_->device().stats().reads, 6u);
  EXPECT_GE(cfs_->op_stats().group_reads, 1u);
}

TEST_F(CffsTest, LargeFileMigratesOutOfGroup) {
  ForEachEncoding(16, [&] {
    ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
    // Starts small (grouped)...
    ASSERT_TRUE(env_->path().WriteFile("/d/big", Payload(1024)).ok());
    auto num = env_->path().Resolve("/d/big");
    ASSERT_TRUE(num.ok());
    auto before = cfs_->LoadInode(*num);
    ASSERT_TRUE(before.ok());
    const uint32_t group = before->group_start;
    const uint32_t group_end = group + before->group_len;
    ASSERT_NE(group, 0u);
    const uint32_t first = MappedBlock(*before, 0);
    EXPECT_GE(first, group);
    EXPECT_LT(first, group_end);
    // ...then grows past small_file_max_blocks (8 blocks = 32 KB).
    ASSERT_TRUE(cfs_->Write(*num, 1024, Payload(60 * 1024)).ok());
    auto after = cfs_->LoadInode(*num);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->group_start, 0u);  // no longer grouped
    // Content intact after migration.
    auto data = env_->path().ReadFile("/d/big");
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->size(), 1024u + 60 * 1024);
    EXPECT_EQ((*data)[0], 0x2a);
    // And no data block of the file is left inside its old group extent.
    size_t data_blocks = 0;
    ASSERT_TRUE(fs::BmapForEach(*cfs_->buffer_cache(), *after,
                                [&](uint64_t idx, uint32_t bno) -> Status {
                                  if (idx == UINT64_MAX) return OkStatus();
                                  ++data_blocks;
                                  EXPECT_FALSE(bno >= group && bno < group_end)
                                      << "file block " << idx << " at " << bno;
                                  return OkStatus();
                                })
                    .ok());
    EXPECT_EQ(data_blocks, 16u);
  });
}

TEST_F(CffsTest, DeletingAllGroupFilesReleasesExtent) {
  ForEachEncoding(16, [&] {
    ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(env_->path()
                      .WriteFile("/d/f" + std::to_string(i), Payload(1024))
                      .ok());
    }
    auto ino = cfs_->LoadInode(*env_->path().Resolve("/d/f0"));
    ASSERT_TRUE(ino.ok());
    const uint32_t extent = ino->group_start;
    const uint16_t len = ino->group_len;
    ASSERT_NE(extent, 0u);
    // Note: the directory's own block lives in the same extent, so deleting
    // the files does NOT release it...
    auto dir = cfs_->LoadInode(*env_->path().Resolve("/d"));
    ASSERT_TRUE(dir.ok());
    const uint32_t dir_block = MappedBlock(*dir, 0);
    EXPECT_GE(dir_block, extent);
    EXPECT_LT(dir_block, extent + len);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(cfs_->Unlink(*env_->path().Resolve("/d"),
                               "f" + std::to_string(i)).ok());
    }
    EXPECT_TRUE(*cfs_->allocator()->ExtentReserved(extent, len));
    // ...but removing the directory itself does.
    ASSERT_TRUE(cfs_->Rmdir(cfs_->root(), "d").ok());
    EXPECT_FALSE(*cfs_->allocator()->ExtentReserved(extent, len));
  });
}

TEST_F(CffsTest, GroupFlushIsOneCommandPerExtent) {
  Make();
  ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
  ASSERT_TRUE(env_->fs()->Sync().ok());
  env_->ResetStats();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(env_->path()
                    .WriteFile("/d/f" + std::to_string(i), Payload(1024))
                    .ok());
  }
  const uint64_t writes_before = env_->device().stats().writes;
  ASSERT_TRUE(env_->fs()->Sync().ok());
  const uint64_t flush_writes = env_->device().stats().writes - writes_before;
  // 12 data blocks + 1 dir block in one extent -> 1 command; metadata
  // (bitmaps, IFILE, superblock) add a handful more.
  EXPECT_LE(flush_writes, 7u);
}

TEST_F(CffsTest, SlotReuseAfterExternalDelete) {
  Make(FsKind::kGroupOnly);  // all files external
  auto a = cfs_->Create(cfs_->root(), "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cfs_->Unlink(cfs_->root(), "a").ok());
  auto b = cfs_->Create(cfs_->root(), "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);  // IFILE slot reused
}

TEST_F(CffsTest, IfileGrowsButNeverShrinks) {
  Make(FsKind::kGroupOnly);
  const uint64_t slots0 = cfs_->external_slot_count();
  std::vector<InodeNum> files;
  for (int i = 0; i < 100; ++i) {
    auto f = cfs_->Create(cfs_->root(), "f" + std::to_string(i));
    ASSERT_TRUE(f.ok());
    files.push_back(*f);
  }
  const uint64_t grown = cfs_->external_slot_count();
  EXPECT_GT(grown, slots0);
  EXPECT_GE(grown, 102u);  // room for all 100 files (+ reserved + root)
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cfs_->Unlink(cfs_->root(), "f" + std::to_string(i)).ok());
  }
  EXPECT_EQ(cfs_->external_slot_count(), grown);  // never shrinks
}

TEST_F(CffsTest, FreeSlotsRediscoveredAtMount) {
  Make(FsKind::kGroupOnly);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cfs_->Create(cfs_->root(), "f" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 20; i += 2) {
    ASSERT_TRUE(cfs_->Unlink(cfs_->root(), "f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(env_->Remount().ok());
  cfs_ = static_cast<CffsFileSystem*>(env_->fs());
  // New creates reuse the freed slots instead of growing the IFILE.
  const uint64_t slots = cfs_->external_slot_count();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cfs_->Create(cfs_->root(), "n" + std::to_string(i)).ok());
  }
  EXPECT_EQ(cfs_->external_slot_count(), slots);
}

TEST_F(CffsTest, OptionsPersistAcrossRemount) {
  Make(FsKind::kCffs, /*group_blocks=*/8);
  ASSERT_TRUE(env_->Remount().ok());
  cfs_ = static_cast<CffsFileSystem*>(env_->fs());
  EXPECT_TRUE(cfs_->options().embed_inodes);
  EXPECT_TRUE(cfs_->options().grouping);
  EXPECT_EQ(cfs_->options().group_blocks, 8u);
}

TEST_F(CffsTest, EmbeddedInodesSurviveRemount) {
  Make();
  ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
  ASSERT_TRUE(env_->path().WriteFile("/d/f", Payload(2048, 0x66)).ok());
  const InodeNum before = *env_->path().Resolve("/d/f");
  ASSERT_TRUE(env_->Remount().ok());
  const InodeNum after = *env_->path().Resolve("/d/f");
  EXPECT_EQ(before, after);  // physical location unchanged => same number
  auto data = env_->path().ReadFile("/d/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 2048u);
}

TEST_F(CffsTest, StaleEmbeddedNumberFailsCleanly) {
  Make();
  auto f = cfs_->Create(cfs_->root(), "f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(cfs_->Unlink(cfs_->root(), "f").ok());
  EXPECT_EQ(cfs_->GetAttr(*f).status().code(), ErrorCode::kBadHandle);
  // A made-up embedded number pointing into free space also fails.
  const InodeNum bogus = fs::MakeEmbedded(50, 128);
  EXPECT_FALSE(cfs_->GetAttr(bogus).ok());
}

TEST_F(CffsTest, GroupSizeRespectedByAllocator) {
  ForEachEncoding(/*group_blocks=*/4, [&] {
    ASSERT_TRUE(env_->path().MkdirAll("/d").ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(env_->path()
                      .WriteFile("/d/f" + std::to_string(i), Payload(1024))
                      .ok());
    }
    std::set<uint32_t> extents;
    for (int i = 0; i < 6; ++i) {
      auto ino = cfs_->LoadInode(
          *env_->path().Resolve("/d/f" + std::to_string(i)));
      ASSERT_TRUE(ino.ok());
      EXPECT_EQ(ino->group_len, 4u);
      extents.insert(ino->group_start);
      const uint32_t bno = MappedBlock(*ino, 0);
      EXPECT_GE(bno, ino->group_start);
      EXPECT_LT(bno, ino->group_start + 4u);
    }
    // 6 file blocks + dir block don't fit in one 4-block extent.
    EXPECT_GE(extents.size(), 2u);
  });
}

}  // namespace
}  // namespace cffs
