// fsck tests: clean file systems pass; injected corruptions are detected
// and repaired; repaired file systems pass a re-check and keep their data.
#include <gtest/gtest.h>

#include "src/fs/common/bitmap.h"
#include "src/fsck/fsck.h"
#include "src/sim/sim_env.h"
#include "src/workload/aging.h"

namespace cffs {
namespace {

using fs::CffsFileSystem;
using fs::FfsFileSystem;

std::unique_ptr<sim::SimEnv> MakeEnv(sim::FsKind kind) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok());
  return std::move(*env);
}

void Populate(sim::SimEnv* env) {
  auto& p = env->path();
  ASSERT_TRUE(p.MkdirAll("/a/b").ok());
  ASSERT_TRUE(p.MkdirAll("/c").ok());
  for (int i = 0; i < 25; ++i) {
    std::vector<uint8_t> data(1024 * (1 + i % 5), static_cast<uint8_t>(i));
    ASSERT_TRUE(p.WriteFile("/a/f" + std::to_string(i), data).ok());
    ASSERT_TRUE(p.WriteFile("/a/b/g" + std::to_string(i), data).ok());
  }
  // A hard link (external inode with nlink 2).
  ASSERT_TRUE(env->fs()->Link(*p.Resolve("/c"), "hard",
                              *p.Resolve("/a/f3")).ok());
  // A large file with indirect blocks.
  std::vector<uint8_t> big(200 * 1024, 0x9c);
  ASSERT_TRUE(p.WriteFile("/c/big", big).ok());
  ASSERT_TRUE(env->fs()->Sync().ok());
}

TEST(FsckFfsTest, CleanFileSystemPasses) {
  auto env = MakeEnv(sim::FsKind::kFfs);
  Populate(env.get());
  auto report = fsck::Check(env->fs_base(), {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean) << report->problems.front();
  EXPECT_EQ(report->files, 51u);        // 50 small + big (hard link = 1 file)
  EXPECT_EQ(report->directories, 4u);   // root, a, a/b, c
}

TEST(FsckFfsTest, DetectsAndRepairsOrphanedBlock) {
  auto env = MakeEnv(sim::FsKind::kFfs);
  Populate(env.get());
  auto* ffs = static_cast<FfsFileSystem*>(env->fs());
  const fs::CgLayout& g = ffs->allocator()->layout(0);
  {
    auto bm = ffs->buffer_cache()->Get(g.bitmap_block);
    ASSERT_TRUE(bm.ok());
    fs::BitSet((*bm).data(), g.blocks - 2);  // orphan: marked, unreferenced
    ffs->buffer_cache()->MarkDirty(*bm);
  }
  auto detect = fsck::Check(ffs, {.repair = false});
  ASSERT_TRUE(detect.ok());
  EXPECT_FALSE(detect->clean);

  auto repair = fsck::Check(ffs, {.repair = true});
  ASSERT_TRUE(repair.ok());
  EXPECT_GE(repair->repaired, 1u);
  auto verify = fsck::Check(ffs, {.repair = false});
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->clean);
}

TEST(FsckFfsTest, DetectsReferencedBlockMarkedFree) {
  auto env = MakeEnv(sim::FsKind::kFfs);
  Populate(env.get());
  auto* ffs = static_cast<FfsFileSystem*>(env->fs());
  // Find a block referenced by /a/f0 and clear its bitmap bit.
  auto ino = ffs->LoadInode(*env->path().Resolve("/a/f0"));
  ASSERT_TRUE(ino.ok());
  const uint32_t victim = ino->direct[0];
  ASSERT_NE(victim, 0u);
  const uint32_t cg = ffs->allocator()->CgOf(victim);
  const fs::CgLayout& g = ffs->allocator()->layout(cg);
  {
    auto bm = ffs->buffer_cache()->Get(g.bitmap_block);
    fs::BitClear((*bm).data(), victim - g.first_block);
    ffs->buffer_cache()->MarkDirty(*bm);
  }
  auto detect = fsck::Check(ffs, {.repair = true});
  ASSERT_TRUE(detect.ok());
  EXPECT_FALSE(detect->clean);
  EXPECT_GE(detect->repaired, 1u);
  EXPECT_TRUE(fsck::Check(ffs, {})->clean);
}

TEST(FsckFfsTest, DetectsWrongLinkCount) {
  auto env = MakeEnv(sim::FsKind::kFfs);
  Populate(env.get());
  auto* ffs = static_cast<FfsFileSystem*>(env->fs());
  const fs::InodeNum num = *env->path().Resolve("/a/f5");
  auto ino = ffs->LoadInode(num);
  ASSERT_TRUE(ino.ok());
  // Corrupt nlink directly in the table.
  uint32_t bno, off;
  ASSERT_TRUE(ffs->LocateInode(num, &bno, &off).ok());
  {
    auto buf = ffs->buffer_cache()->Get(bno);
    fs::InodeData bad = *ino;
    bad.nlink = 7;
    bad.Encode((*buf).data(), off);
    ffs->buffer_cache()->MarkDirty(*buf);
  }
  auto repair = fsck::Check(ffs, {.repair = true});
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->clean);
  EXPECT_TRUE(fsck::Check(ffs, {})->clean);
  EXPECT_EQ(ffs->LoadInode(num)->nlink, 1u);
}

TEST(FsckCffsTest, CleanFileSystemPasses) {
  auto env = MakeEnv(sim::FsKind::kCffs);
  Populate(env.get());
  auto report = fsck::CheckCffs(static_cast<CffsFileSystem*>(env->fs()), {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean) << report->problems.front();
  EXPECT_EQ(report->files, 51u);
  EXPECT_EQ(report->directories, 4u);
}

TEST(FsckCffsTest, AllConfigurationsPassWhenClean) {
  for (sim::FsKind kind : {sim::FsKind::kConventional, sim::FsKind::kEmbedOnly,
                           sim::FsKind::kGroupOnly}) {
    auto env = MakeEnv(kind);
    Populate(env.get());
    auto report = fsck::CheckCffs(static_cast<CffsFileSystem*>(env->fs()), {});
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean)
        << sim::FsKindName(kind) << ": " << report->problems.front();
  }
}

TEST(FsckCffsTest, DetectsStaleGroupReservation) {
  auto env = MakeEnv(sim::FsKind::kCffs);
  Populate(env.get());
  auto* cfs = static_cast<CffsFileSystem*>(env->fs());
  const fs::CgLayout& g = cfs->allocator()->layout(0);
  const uint16_t gb = cfs->options().group_blocks;
  {
    auto rm = cfs->buffer_cache()->Get(g.resv_block);
    // Reserve the last aligned window, which nothing references.
    const uint32_t w = (g.blocks / gb - 1) * gb;
    for (uint32_t i = 0; i < gb; ++i) fs::BitSet((*rm).data(), w + i);
    cfs->buffer_cache()->MarkDirty(*rm);
  }
  auto repair = fsck::CheckCffs(cfs, {.repair = true});
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->clean);
  EXPECT_GE(repair->repaired, 1u);
  EXPECT_TRUE(fsck::CheckCffs(cfs, {})->clean);
}

TEST(FsckCffsTest, DetectsBitmapDamage) {
  auto env = MakeEnv(sim::FsKind::kCffs);
  Populate(env.get());
  auto* cfs = static_cast<CffsFileSystem*>(env->fs());
  auto ino = cfs->LoadInode(*env->path().Resolve("/a/f0"));
  ASSERT_TRUE(ino.ok());
  const uint32_t victim = ino->direct[0];
  const uint32_t cg = cfs->allocator()->CgOf(victim);
  const fs::CgLayout& g = cfs->allocator()->layout(cg);
  {
    auto bm = cfs->buffer_cache()->Get(g.bitmap_block);
    fs::BitClear((*bm).data(), victim - g.first_block);
    cfs->buffer_cache()->MarkDirty(*bm);
  }
  auto repair = fsck::CheckCffs(cfs, {.repair = true});
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->clean);
  EXPECT_TRUE(fsck::CheckCffs(cfs, {})->clean);
  // Data unharmed.
  auto data = env->path().ReadFile("/a/f0");
  ASSERT_TRUE(data.ok());
}

TEST(FsckCffsTest, DetectsEmbeddedIdMismatch) {
  auto env = MakeEnv(sim::FsKind::kCffs);
  Populate(env.get());
  auto* cfs = static_cast<CffsFileSystem*>(env->fs());
  const fs::InodeNum num = *env->path().Resolve("/a/f1");
  ASSERT_TRUE(fs::IsEmbedded(num));
  {
    auto buf = cfs->buffer_cache()->Get(fs::EmbeddedBlock(num));
    auto img = fs::InodeData::Decode((*buf).data(), fs::EmbeddedOffset(num));
    img.self ^= 0x10;  // corrupt the self pointer
    img.Encode((*buf).data(), fs::EmbeddedOffset(num));
    cfs->buffer_cache()->MarkDirty(*buf);
  }
  auto detect = fsck::CheckCffs(cfs, {});
  ASSERT_TRUE(detect.ok());
  EXPECT_FALSE(detect->clean);
}

TEST(FsckCffsTest, CleanAfterChurnAndRemount) {
  auto env = MakeEnv(sim::FsKind::kCffs);
  workload::AgingParams params;
  params.operations = 1500;
  params.target_utilization = 0.4;
  params.num_dirs = 8;
  params.max_file_bytes = 64 * 1024;
  auto aged = workload::AgeFileSystem(env.get(), params);
  ASSERT_TRUE(aged.ok()) << aged.status().ToString();
  ASSERT_TRUE(env->Remount().ok());
  auto report = fsck::CheckCffs(static_cast<CffsFileSystem*>(env->fs()), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean)
      << report->problems.size() << " problems, first: "
      << report->problems.front();
}

TEST(FsckFfsTest, CleanAfterChurnAndRemount) {
  auto env = MakeEnv(sim::FsKind::kFfs);
  workload::AgingParams params;
  params.operations = 1500;
  params.target_utilization = 0.4;
  params.num_dirs = 8;
  params.max_file_bytes = 64 * 1024;
  auto aged = workload::AgeFileSystem(env.get(), params);
  ASSERT_TRUE(aged.ok()) << aged.status().ToString();
  ASSERT_TRUE(env->Remount().ok());
  auto report = fsck::Check(env->fs_base(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean)
      << report->problems.size() << " problems, first: "
      << report->problems.front();
}

}  // namespace
}  // namespace cffs
