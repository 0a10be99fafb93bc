// Crash-consistency tests (paper §3, "Simplifying integrity maintenance").
//
// Under the synchronous-metadata discipline, a crash at ANY point must
// leave the metadata recoverable with these invariants:
//   * FFS: a directory entry never references an uninitialized inode
//     (inode is written before the name — so a crash can leak an inode,
//     never a bogus name);
//   * C-FFS embedded: name and inode live in the same sector, so each
//     create/delete is atomic — the file either fully exists or doesn't;
//   * after fsck --repair, the file system is clean and all previously
//     synced data is intact.
//
// The harness crashes two ways: the legacy all-or-nothing drop (every
// cached dirty block lost at once, via SimEnv::CrashAndRemount) and the
// systematic crash-state enumerator (check::CrashStateEnumerator), which
// materializes partial drains of the dirty queue — scheduler-order
// prefixes, single-write dropouts and random subsets — on cloned disks
// and fsck's each one.
#include <gtest/gtest.h>

#include "src/check/crash_enum.h"
#include "src/fsck/fsck.h"
#include "src/sim/sim_env.h"
#include "src/util/rng.h"

namespace cffs {
namespace {

using sim::FsKind;

std::unique_ptr<sim::SimEnv> MakeEnv(FsKind kind, fs::MetadataPolicy policy) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  config.metadata = policy;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok());
  return std::move(*env);
}

// fsck (with repair) must leave the file system clean after any crash.
void RepairAndVerify(sim::SimEnv* env) {
  auto repair = fsck::Check(env->fs_base(), {.repair = true});
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  ASSERT_TRUE(env->fs()->Sync().ok());
  auto verify = fsck::Check(env->fs_base(), {});
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify->clean) << verify->problems.front();
}

TEST(CrashTest, SyncedDataSurvivesCrash) {
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    auto env = MakeEnv(kind, fs::MetadataPolicy::kSynchronous);
    ASSERT_TRUE(env->path().MkdirAll("/d").ok());
    std::vector<uint8_t> data(3000, 0x5e);
    ASSERT_TRUE(env->path().WriteFile("/d/safe", data).ok());
    ASSERT_TRUE(env->fs()->Sync().ok());
    // Unsynced follow-up work that the crash destroys.
    ASSERT_TRUE(env->path().WriteFile("/d/doomed_data",
                                      std::vector<uint8_t>(5000, 1)).ok());
    auto lost = env->CrashAndRemount();
    ASSERT_TRUE(lost.ok());
    auto back = env->path().ReadFile("/d/safe");
    ASSERT_TRUE(back.ok()) << sim::FsKindName(kind);
    EXPECT_EQ(*back, data) << sim::FsKindName(kind);
    RepairAndVerify(env.get());
  }
}

TEST(CrashTest, CffsCreateIsAtomicNameAndInode) {
  // With embedded inodes the name+inode pair is written in one sector:
  // after a crash, every name present in a directory must resolve to a
  // fully valid inode.
  auto env = MakeEnv(FsKind::kCffs, fs::MetadataPolicy::kSynchronous);
  ASSERT_TRUE(env->path().MkdirAll("/d").ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(env->fs()
                    ->Create(*env->path().Resolve("/d"),
                             "f" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(env->CrashAndRemount().ok());
  auto entries = env->fs()->ReadDir(*env->path().Resolve("/d"));
  ASSERT_TRUE(entries.ok());
  // The creates were synchronous: all 30 names survived, each resolvable
  // with a consistent inode.
  EXPECT_EQ(entries->size(), 30u);
  for (const auto& e : *entries) {
    auto attr = env->fs()->GetAttr(e.inum);
    ASSERT_TRUE(attr.ok()) << e.name;
    EXPECT_EQ(attr->type, fs::FileType::kRegular);
  }
  RepairAndVerify(env.get());
}

TEST(CrashTest, FfsNeverShowsNameWithoutInode) {
  auto env = MakeEnv(FsKind::kFfs, fs::MetadataPolicy::kSynchronous);
  ASSERT_TRUE(env->path().MkdirAll("/d").ok());
  const fs::InodeNum d = *env->path().Resolve("/d");
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(env->fs()->Create(d, "f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(env->CrashAndRemount().ok());
  auto entries = env->fs()->ReadDir(*env->path().Resolve("/d"));
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries) {
    // Every surviving name references an initialized inode (the ordering
    // guarantee bought by the first synchronous write).
    auto attr = env->fs()->GetAttr(e.inum);
    EXPECT_TRUE(attr.ok()) << e.name << " -> dangling inode " << e.inum;
  }
  RepairAndVerify(env.get());
}

TEST(CrashTest, DeletedFilesStayDeletedAfterCrash) {
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    auto env = MakeEnv(kind, fs::MetadataPolicy::kSynchronous);
    ASSERT_TRUE(env->path().WriteFile("/victim",
                                      std::vector<uint8_t>(2048, 9)).ok());
    ASSERT_TRUE(env->fs()->Sync().ok());
    ASSERT_TRUE(env->path().Unlink("/victim").ok());
    // Crash immediately after the (synchronous) removal.
    ASSERT_TRUE(env->CrashAndRemount().ok());
    EXPECT_FALSE(env->path().Resolve("/victim").ok()) << sim::FsKindName(kind);
    RepairAndVerify(env.get());
  }
}

TEST(CrashTest, DelayedPolicyRecoversViaFsck) {
  // With soft-updates-emulated (all-delayed) metadata, a crash can lose
  // arbitrary recent operations, but repair must still produce a clean
  // file system containing only intact files.
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    auto env = MakeEnv(kind, fs::MetadataPolicy::kDelayed);
    ASSERT_TRUE(env->path().MkdirAll("/base").ok());
    ASSERT_TRUE(env->path().WriteFile("/base/keep",
                                      std::vector<uint8_t>(4096, 2)).ok());
    ASSERT_TRUE(env->fs()->Sync().ok());
    // A burst of unsynced churn.
    Rng rng(55);
    for (int i = 0; i < 60; ++i) {
      const std::string p = "/base/tmp" + std::to_string(i);
      ASSERT_TRUE(env->path()
                      .WriteFile(p, std::vector<uint8_t>(rng.Below(9000) + 1, 3))
                      .ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(env->path().Unlink(p).ok());
      }
    }
    auto lost = env->CrashAndRemount();
    ASSERT_TRUE(lost.ok());
    EXPECT_GT(*lost, 0u) << "crash should have destroyed dirty state";
    RepairAndVerify(env.get());
    auto keep = env->path().ReadFile("/base/keep");
    ASSERT_TRUE(keep.ok()) << sim::FsKindName(kind);
    EXPECT_EQ(keep->size(), 4096u);
  }
}

TEST(CrashTest, RandomCrashPointsAlwaysRepairable) {
  // Property sweep: crash after K operations for several K and seeds; the
  // repaired file system must always come back clean with /anchor intact.
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    for (uint64_t seed : {11u, 22u, 33u}) {
      auto env = MakeEnv(kind, fs::MetadataPolicy::kSynchronous);
      ASSERT_TRUE(env->path().WriteFile("/anchor",
                                        std::vector<uint8_t>(1024, 7)).ok());
      ASSERT_TRUE(env->fs()->Sync().ok());
      Rng rng(seed);
      const int crash_after = static_cast<int>(rng.Range(1, 40));
      for (int i = 0; i < crash_after; ++i) {
        const std::string p = "/f" + std::to_string(rng.Below(12));
        switch (rng.Below(3)) {
          case 0:
            (void)env->path().WriteFile(p, std::vector<uint8_t>(
                                               rng.Below(6000) + 1, 4));
            break;
          case 1:
            (void)env->path().Unlink(p);
            break;
          case 2:
            (void)env->path().MkdirAll("/dir" + std::to_string(rng.Below(4)));
            break;
        }
      }
      ASSERT_TRUE(env->CrashAndRemount().ok());
      RepairAndVerify(env.get());
      auto anchor = env->path().ReadFile("/anchor");
      ASSERT_TRUE(anchor.ok())
          << sim::FsKindName(kind) << " seed " << seed;
      EXPECT_EQ(anchor->size(), 1024u);
    }
  }
}

// ---------------------------------------------------------------------------
// Systematic crash-state enumeration.
// ---------------------------------------------------------------------------

// Leaves the environment with a meaningful pending dirty queue: synced
// base state, then unsynced create/write/unlink churn.
void Churn(sim::SimEnv* env, uint64_t seed, int ops) {
  ASSERT_TRUE(env->path().MkdirAll("/c").ok());
  ASSERT_TRUE(env->path().WriteFile("/c/anchor",
                                    std::vector<uint8_t>(2048, 7)).ok());
  ASSERT_TRUE(env->fs()->Sync().ok());
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::string p = "/c/f" + std::to_string(rng.Below(10));
    if (rng.Below(4) == 0) {
      // Unlinking a name the churn may not have created yet; ENOENT is fine.
      (void)env->path().Unlink(p);
    } else {
      ASSERT_TRUE(env->path()
                      .WriteFile(p, std::vector<uint8_t>(rng.Below(7000) + 1,
                                                         static_cast<uint8_t>(i)))
                      .ok());
    }
  }
}

TEST(CrashEnumTest, EveryPartialDrainIsRepairableUnderSyncPolicy) {
  // Paper §3: with ordered synchronous metadata, a crash at ANY point —
  // including one that drains the write-back queue partially and out of
  // order — must leave a repairable image. The enumerator proves it over
  // prefixes, dropouts and random subsets of the real dirty queue.
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    auto env = MakeEnv(kind, fs::MetadataPolicy::kSynchronous);
    Churn(env.get(), /*seed=*/91, /*ops=*/25);
    check::CrashEnumOptions options;
    options.max_prefixes = 10;
    options.max_dropouts = 6;
    options.max_subsets = 10;
    options.seed = 5;
    check::CrashStateEnumerator enumerator(env.get(), options);
    auto report = enumerator.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->dirty_blocks, 0u) << sim::FsKindName(kind);
    EXPECT_GE(report->states, 10u) << sim::FsKindName(kind);
    EXPECT_TRUE(report->all_recoverable())
        << sim::FsKindName(kind) << ": " << report->ToJson();
    // Partially-drained images are genuinely damaged (that is what makes
    // the exploration meaningful); repair is what must always succeed.
    EXPECT_GT(report->unclean_images, 0u) << sim::FsKindName(kind);
    // The enumerator worked on clones: the live environment still syncs
    // and verifies clean.
    ASSERT_TRUE(env->fs()->Sync().ok());
    RepairAndVerify(env.get());
  }
}

TEST(CrashEnumTest, EveryPartialDrainIsRepairableUnderDelayedPolicy) {
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    auto env = MakeEnv(kind, fs::MetadataPolicy::kDelayed);
    Churn(env.get(), /*seed=*/17, /*ops=*/30);
    check::CrashEnumOptions options;
    options.max_prefixes = 8;
    options.max_dropouts = 4;
    options.max_subsets = 8;
    check::CrashStateEnumerator enumerator(env.get(), options);
    auto report = enumerator.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->dirty_blocks, 0u);
    EXPECT_TRUE(report->all_recoverable())
        << sim::FsKindName(kind) << ": " << report->ToJson();
  }
}

TEST(CrashEnumTest, SyncerFlushPlanStatesAreRepairable) {
  // The syncer_plan mode enumerates crash points of the NEXT syncer epoch:
  // the cache's flush plan (clean gap-fillers included) in the device
  // scheduler's real service order from the real head position. A power
  // cut mid-epoch leaves a prefix of exactly this sequence, and every such
  // image must still be repairable under both file systems.
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    auto env = MakeEnv(kind, fs::MetadataPolicy::kDelayed);
    Churn(env.get(), /*seed=*/29, /*ops=*/30);
    check::CrashEnumOptions options;
    options.max_prefixes = 8;
    options.max_dropouts = 4;
    options.max_subsets = 6;
    options.syncer_plan = true;
    check::CrashStateEnumerator enumerator(env.get(), options);
    auto report = enumerator.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->dirty_blocks, 0u) << sim::FsKindName(kind);
    EXPECT_TRUE(report->all_recoverable())
        << sim::FsKindName(kind) << ": " << report->ToJson();
  }
}

TEST(CrashEnumTest, QuickModeBoundsTheStateCount) {
  // Quick mode explores a handful of states of each shape; it must stay
  // small.
  auto env = MakeEnv(FsKind::kCffs, fs::MetadataPolicy::kSynchronous);
  Churn(env.get(), /*seed=*/3, /*ops=*/20);
  check::CrashEnumOptions options;
  options.quick = true;
  check::CrashStateEnumerator enumerator(env.get(), options);
  auto report = enumerator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(report->states, 16u);
  EXPECT_GT(report->states, 0u);
  EXPECT_TRUE(report->all_recoverable()) << report->ToJson();
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("cffs-crashenum-v1"), std::string::npos);
}

TEST(CrashEnumTest, CleanQueueYieldsOneTrivialState) {
  // Nothing dirty: the only crash image is the disk as-is, and it is
  // already clean without repair.
  auto env = MakeEnv(FsKind::kFfs, fs::MetadataPolicy::kSynchronous);
  ASSERT_TRUE(env->path().WriteFile("/f", std::vector<uint8_t>(512, 1)).ok());
  ASSERT_TRUE(env->fs()->Sync().ok());
  check::CrashStateEnumerator enumerator(env.get());
  auto report = enumerator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->dirty_blocks, 0u);
  EXPECT_EQ(report->states, 1u);
  EXPECT_EQ(report->unclean_images, 0u);
  EXPECT_TRUE(report->all_recoverable()) << report->ToJson();
}

}  // namespace
}  // namespace cffs
