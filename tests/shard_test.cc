// Tests for the sharded scale-out namespace (src/shard): placement purity
// and the jump-hash minimal-movement guarantee, the router's skeleton-
// directory namespace invariants (a directory's embedded-inode group never
// splits across shards), same- and cross-shard renames with the two-phase
// journal protocol, the cross-shard ordering checker (clean on the correct
// protocol, convicting on the seeded mutations), and the sharded driver's
// determinism, scaling, param checks and per-shard backpressure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/xshard.h"
#include "src/fsck/fsck.h"
#include "src/io/syncer.h"
#include "src/shard/driver.h"
#include "src/shard/placement.h"
#include "src/shard/router.h"
#include "src/sim/sim_env.h"

namespace cffs::shard {
namespace {

sim::SimConfig ShardConfig(uint32_t shards) {
  sim::SimConfig cfg;
  cfg.shards = shards;
  return cfg;
}

std::vector<uint8_t> Payload(size_t n, uint8_t tag) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(tag + i);
  return data;
}

// First probe directory "/x<i>" owned by `want` under M shards.
std::string DirOwnedBy(uint32_t want, uint32_t shards) {
  for (int i = 0; i < 1000; ++i) {
    std::string d = "/x" + std::to_string(i);
    if (ShardForDir(d, shards) == want) return d;
  }
  ADD_FAILURE() << "no probe dir hashed to shard " << want;
  return "/";
}

size_t JournalEntries(sim::SimEnv* env) {
  auto ino = env->path().Resolve(kJournalDir);
  if (!ino.ok()) return 0;
  auto entries = env->path().fs()->ReadDir(*ino);
  if (!entries.ok()) return 0;
  size_t n = 0;
  for (const auto& e : *entries) {
    if (e.name != "." && e.name != "..") ++n;
  }
  return n;
}

// --- placement ------------------------------------------------------------

TEST(PlacementTest, NormalizeAndParent) {
  EXPECT_EQ(NormalizeDirPath(""), "/");
  EXPECT_EQ(NormalizeDirPath("/"), "/");
  EXPECT_EQ(NormalizeDirPath("/a//b/"), "/a/b");
  EXPECT_EQ(ParentDirPath("/a/b"), "/a");
  EXPECT_EQ(ParentDirPath("/a"), "/");
  EXPECT_EQ(ParentDirPath("/"), "/");
}

TEST(PlacementTest, PureFunctionOfPathAndShardCount) {
  for (int i = 0; i < 200; ++i) {
    const std::string d = "/proj/dir" + std::to_string(i);
    const uint32_t s = ShardForDir(d, 8);
    EXPECT_EQ(ShardForDir(d, 8), s);                  // stable on re-ask
    EXPECT_EQ(ShardForDir(d + "//", 8), s);           // normalization-stable
    EXPECT_LT(s, 8u);
    // Group affinity: every member file of the directory lands with it.
    EXPECT_EQ(ShardForFile(d + "/f" + std::to_string(i), 8), s);
    EXPECT_EQ(ShardForFile(d + "/g.c", 8), s);
  }
  EXPECT_EQ(ShardForDir("/", 8), 0u);  // root is canonically shard 0
  EXPECT_EQ(ShardForDir("/anything", 1), 0u);
}

TEST(PlacementTest, JumpGrowthMovesDirsOnlyToTheNewShard) {
  constexpr int kDirs = 600;
  int moved = 0;
  for (int i = 0; i < kDirs; ++i) {
    const std::string d = "/tree/node" + std::to_string(i);
    const uint32_t before = ShardForDir(d, 4);
    const uint32_t after = ShardForDir(d, 5);
    if (after != before) {
      EXPECT_EQ(after, 4u) << d << " moved to an OLD shard";
      ++moved;
    }
  }
  // ~1/5 of directories move, never more than a loose bound of it.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kDirs * 2 / 5);
}

// --- router namespace -----------------------------------------------------

TEST(ShardRouterTest, BasicNamespaceAcrossShards) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(4));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ShardRouter& r = **router;

  ASSERT_TRUE(r.MkdirAll("/a/b").ok());
  const auto data = Payload(900, 7);
  ASSERT_TRUE(r.WriteFile("/a/b/file.c", data).ok());
  auto back = r.ReadFile("/a/b/file.c");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);

  auto attr = r.Stat("/a/b/file.c");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, data.size());
  auto dattr = r.Stat("/a/b");
  ASSERT_TRUE(dattr.ok());
  EXPECT_EQ(dattr->type, fs::FileType::kDirectory);

  // ReadDir of the parent lists the subdirectory wherever it hashed.
  auto ls = r.ReadDir("/a");
  ASSERT_TRUE(ls.ok());
  bool saw_b = false;
  for (const auto& e : *ls) saw_b |= e.name == "b";
  EXPECT_TRUE(saw_b);

  // The journal directory never leaks into listings of /.
  auto root_ls = r.ReadDir("/");
  ASSERT_TRUE(root_ls.ok());
  for (const auto& e : *root_ls) EXPECT_NE(e.name, ".xsj");

  EXPECT_EQ(r.Rmdir("/a/b").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(r.Unlink("/a/b/file.c").ok());
  ASSERT_TRUE(r.Rmdir("/a/b").ok());
  EXPECT_EQ(r.Stat("/a/b").status().code(), ErrorCode::kNotFound);
  // The skeleton entry is gone too: the parent no longer lists it.
  ls = r.ReadDir("/a");
  ASSERT_TRUE(ls.ok());
  for (const auto& e : *ls) EXPECT_NE(e.name, "b");
  ASSERT_TRUE(r.Rmdir("/a").ok());

  EXPECT_EQ(r.Mkdir("/lost/dir").code(), ErrorCode::kNotFound);  // no parent
  EXPECT_TRUE(r.SyncAll().ok());
}

TEST(ShardRouterTest, ReservedJournalPathsAreRejected) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;
  EXPECT_EQ(r.Mkdir("/.xsj/x").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.CreateFile("/.xsj/f").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.ReadDir("/.xsj").status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.Unlink("/.xsj/t1.src").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.CreateFile("relative").code(), ErrorCode::kInvalidArgument);
}

TEST(ShardRouterTest, EmbeddedInodeGroupNeverSplitsAcrossShards) {
  constexpr uint32_t kShards = 4;
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(kShards));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;

  for (int d = 0; d < 12; ++d) {
    const std::string dir = "/g" + std::to_string(d);
    ASSERT_TRUE(r.Mkdir(dir).ok());
    for (int f = 0; f < 6; ++f) {
      const std::string file = dir + "/f" + std::to_string(f);
      ASSERT_TRUE(r.WriteFile(file, Payload(256, static_cast<uint8_t>(f)))
                      .ok());
    }
  }
  ASSERT_TRUE(r.SyncAll().ok());

  for (int d = 0; d < 12; ++d) {
    const std::string dir = "/g" + std::to_string(d);
    const uint32_t owner = r.OwnerOfDir(dir);
    for (int f = 0; f < 6; ++f) {
      const std::string file = dir + "/f" + std::to_string(f);
      EXPECT_EQ(r.OwnerOfFile(file), owner);
      for (uint32_t s = 0; s < kShards; ++s) {
        // The file is resolvable on its owner shard and NOWHERE else: the
        // directory's group (dir block + embedded inodes + small-file
        // data) lives on exactly one disk.
        EXPECT_EQ(r.env(s)->path().Resolve(file).ok(), s == owner)
            << file << " on shard " << s;
      }
    }
  }
}

TEST(ShardRouterTest, PlacementSurvivesRemount) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(3));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;
  std::vector<std::pair<std::string, uint32_t>> placed;
  for (int d = 0; d < 8; ++d) {
    const std::string dir = "/m" + std::to_string(d);
    ASSERT_TRUE(r.Mkdir(dir).ok());
    ASSERT_TRUE(r.WriteFile(dir + "/f", Payload(128, 3)).ok());
    placed.emplace_back(dir, r.OwnerOfDir(dir));
  }
  ASSERT_TRUE(r.SyncAll().ok());
  for (uint32_t s = 0; s < r.shards(); ++s) {
    ASSERT_TRUE(r.env(s)->Remount().ok());
  }
  for (const auto& [dir, owner] : placed) {
    EXPECT_EQ(r.OwnerOfDir(dir), owner);  // pure function, no placement table
    auto back = r.ReadFile(dir + "/f");
    ASSERT_TRUE(back.ok()) << dir;
    EXPECT_EQ(back->size(), 128u);
  }
}

// --- renames --------------------------------------------------------------

TEST(ShardRouterTest, SameShardRenameIsPlain) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;
  const std::string dir = DirOwnedBy(0, 2);
  ASSERT_TRUE(r.Mkdir(dir).ok());
  ASSERT_TRUE(r.WriteFile(dir + "/old", Payload(64, 1)).ok());
  ASSERT_TRUE(r.Rename(dir + "/old", dir + "/new").ok());
  EXPECT_EQ(r.stats().renames_local, 1u);
  EXPECT_EQ(r.stats().renames_cross, 0u);
  EXPECT_FALSE(r.Stat(dir + "/old").ok());
  EXPECT_TRUE(r.Stat(dir + "/new").ok());
}

TEST(ShardRouterTest, CrossShardRenameMovesTheFile) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;
  const std::string src_dir = DirOwnedBy(0, 2);
  const std::string dst_dir = DirOwnedBy(1, 2);
  ASSERT_TRUE(r.Mkdir(src_dir).ok());
  ASSERT_TRUE(r.Mkdir(dst_dir).ok());
  const auto data = Payload(1500, 9);
  ASSERT_TRUE(r.WriteFile(src_dir + "/file", data).ok());
  ASSERT_TRUE(r.SyncAll().ok());

  ASSERT_TRUE(r.Rename(src_dir + "/file", dst_dir + "/file").ok());
  EXPECT_EQ(r.stats().renames_cross, 1u);
  EXPECT_EQ(r.Stat(src_dir + "/file").status().code(), ErrorCode::kNotFound);
  auto back = r.ReadFile(dst_dir + "/file");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  // The protocol cleaned up after itself on both shards.
  EXPECT_EQ(JournalEntries(r.env(0)), 0u);
  EXPECT_EQ(JournalEntries(r.env(1)), 0u);
}

TEST(ShardRouterTest, RenameRejectsDirectoriesAndExistingDestinations) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;
  const std::string src_dir = DirOwnedBy(0, 2);
  const std::string dst_dir = DirOwnedBy(1, 2);
  ASSERT_TRUE(r.Mkdir(src_dir).ok());
  ASSERT_TRUE(r.Mkdir(dst_dir).ok());
  ASSERT_TRUE(r.WriteFile(src_dir + "/a", Payload(32, 1)).ok());
  ASSERT_TRUE(r.WriteFile(dst_dir + "/b", Payload(32, 2)).ok());

  EXPECT_EQ(r.Rename(src_dir, dst_dir + "/sub").code(),
            ErrorCode::kUnsupported);
  EXPECT_EQ(r.Rename(src_dir + "/a", dst_dir + "/b").code(),
            ErrorCode::kExists);
  EXPECT_EQ(r.Rename(src_dir + "/a", "/nosuch/dir/c").code(),
            ErrorCode::kNotFound);
  // Failed attempts leave both namespaces intact.
  EXPECT_TRUE(r.Stat(src_dir + "/a").ok());
  EXPECT_TRUE(r.Stat(dst_dir + "/b").ok());
}

// --- cross-shard ordering checker ----------------------------------------

check::OrderingReport RunCheckedRenames(ShardRouter& r,
                                        const std::string& mutation) {
  const std::string src_dir = DirOwnedBy(0, 2);
  const std::string dst_dir = DirOwnedBy(1, 2);
  EXPECT_TRUE(r.Mkdir(src_dir).ok());
  EXPECT_TRUE(r.Mkdir(dst_dir).ok());
  for (int i = 0; i < 3; ++i) {
    const std::string name = "/f" + std::to_string(i);
    EXPECT_TRUE(r.WriteFile(src_dir + name, Payload(300, 5)).ok());
  }
  EXPECT_TRUE(r.SyncAll().ok());
  r.EnableTrace();
  r.set_mutation(mutation);
  for (int i = 0; i < 3; ++i) {
    const std::string name = "/f" + std::to_string(i);
    EXPECT_TRUE(r.Rename(src_dir + name, dst_dir + name).ok());
  }
  r.set_mutation("");
  check::CrossShardChecker checker;
  for (uint32_t s = 0; s < r.shards(); ++s) {
    checker.NoteDropped(r.env(s)->trace()->dropped());
    checker.ConsumeShard(s, r.env(s)->trace()->Events());
  }
  return checker.Finish();
}

TEST(CrossShardCheckerTest, CorrectProtocolIsClean) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  auto report = RunCheckedRenames(**router, "");
  EXPECT_TRUE(report.clean()) << report.ToJson();
  // 3 renames x (2 prepares + 1 commit + 2 clears).
  EXPECT_EQ(report.annotations, 15u);
}

TEST(CrossShardCheckerTest, ConvictsSkippedCommitSync) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  auto report = RunCheckedRenames(**router, "xshard-skip-commit-sync");
  EXPECT_FALSE(report.clean());
  // The commit barrier has no sync behind it, so the commit record is not
  // durable when the source is cleared.
  EXPECT_GE(report.CountRule(check::RuleId::kXCommitOrder), 1u)
      << report.ToJson();
}

TEST(CrossShardCheckerTest, ConvictsEarlySourceClear) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  auto report = RunCheckedRenames(**router, "xshard-early-clear");
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.CountRule(check::RuleId::kXCommitOrder), 1u)
      << report.ToJson();
}

TEST(CrossShardCheckerTest, FlagsDanglingPreparesAfterCrash) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  ShardRouter& r = **router;
  const std::string src_dir = DirOwnedBy(0, 2);
  const std::string dst_dir = DirOwnedBy(1, 2);
  ASSERT_TRUE(r.Mkdir(src_dir).ok());
  ASSERT_TRUE(r.Mkdir(dst_dir).ok());
  ASSERT_TRUE(r.WriteFile(src_dir + "/f", Payload(100, 1)).ok());
  ASSERT_TRUE(r.SyncAll().ok());
  r.EnableTrace();
  r.set_xtx_crash_point(XStep::kCommit, /*after_sync=*/false);
  EXPECT_EQ(r.Rename(src_dir + "/f", dst_dir + "/f").code(),
            ErrorCode::kIoError);
  EXPECT_EQ(r.stats().renames_failed, 1u);

  check::CrossShardChecker checker;
  for (uint32_t s = 0; s < r.shards(); ++s) {
    checker.ConsumeShard(s, r.env(s)->trace()->Events());
  }
  auto report = checker.Finish();
  // Both prepares ran, neither clear did.
  EXPECT_EQ(report.CountRule(check::RuleId::kXDangling), 2u)
      << report.ToJson();
}

// --- crash + recovery at every protocol point -----------------------------

TEST(ShardRecoveryTest, FileOnExactlyOneShardAfterCrashAtEveryStep) {
  const XStep steps[] = {XStep::kSrcPrepare, XStep::kDstPrepare, XStep::kCommit,
                         XStep::kSrcClear, XStep::kDstClear};
  for (XStep step : steps) {
    for (bool after_sync : {false, true}) {
      SCOPED_TRACE(std::string(XStepName(step)) +
                   (after_sync ? " after-sync" : " before-sync"));
      auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
      ASSERT_TRUE(router.ok());
      ShardRouter& r = **router;
      const std::string src_dir = DirOwnedBy(0, 2);
      const std::string dst_dir = DirOwnedBy(1, 2);
      const std::string from = src_dir + "/file";
      const std::string to = dst_dir + "/file";
      ASSERT_TRUE(r.Mkdir(src_dir).ok());
      ASSERT_TRUE(r.Mkdir(dst_dir).ok());
      const auto data = Payload(700, 11);
      ASSERT_TRUE(r.WriteFile(from, data).ok());
      ASSERT_TRUE(r.SyncAll().ok());

      r.set_xtx_crash_point(step, after_sync);
      EXPECT_EQ(r.Rename(from, to).code(), ErrorCode::kIoError);

      // Power failure on every shard: all unsynced state is gone, the disks
      // keep what the per-step syncs (and the synchronous metadata policy's
      // write-throughs) made durable. Structural repair first — fsck fixes
      // the block-level damage of the half-applied step — then the journal
      // decides the transaction, exactly the mount-time discipline.
      for (uint32_t s = 0; s < r.shards(); ++s) {
        ASSERT_TRUE(r.env(s)->CrashAndRemount().ok());
        for (int round = 0; round < 3; ++round) {
          auto rep = fsck::CheckCffs(
              static_cast<fs::CffsFileSystem*>(r.env(s)->fs()),
              {.repair = true});
          ASSERT_TRUE(rep.ok()) << rep.status().ToString();
          ASSERT_TRUE(r.env(s)->fs()->Sync().ok());
          auto verify = fsck::CheckCffs(
              static_cast<fs::CffsFileSystem*>(r.env(s)->fs()), {});
          ASSERT_TRUE(verify.ok());
          if (verify->clean) break;
        }
      }
      Status recovered = r.Recover();
      ASSERT_TRUE(recovered.ok()) << recovered.ToString();

      const bool src_exists = r.env(0)->path().Resolve(from).ok();
      const bool dst_exists = r.env(1)->path().Resolve(to).ok();
      EXPECT_NE(src_exists, dst_exists) << "file must survive exactly once";
      // The rename wins exactly when the commit record became durable.
      const bool commit_durable =
          step > XStep::kCommit || (step == XStep::kCommit && after_sync);
      EXPECT_EQ(dst_exists, commit_durable);
      auto back = dst_exists ? r.env(1)->path().ReadFile(to)
                             : r.env(0)->path().ReadFile(from);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, data);
      EXPECT_EQ(JournalEntries(r.env(0)), 0u);
      EXPECT_EQ(JournalEntries(r.env(1)), 0u);

      // Recovery is idempotent.
      ASSERT_TRUE(r.Recover().ok());
      EXPECT_EQ(r.env(0)->path().Resolve(from).ok(), src_exists);
      EXPECT_EQ(r.env(1)->path().Resolve(to).ok(), dst_exists);
    }
  }
}

// --- sharded driver -------------------------------------------------------

ShardDriverParams SmallDriverParams() {
  ShardDriverParams p;
  p.clients = 8;
  p.ops_per_client = 40;
  p.dirs_per_client = 4;
  p.rename_pct = 20;
  p.create_pct = 35;
  p.read_pct = 35;
  p.seed = 42;
  return p;
}

TEST(ShardDriverTest, StatsAreConsistentAcrossTheShardAxis) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(4));
  ASSERT_TRUE(router.ok());
  ShardDriver driver(router->get(), SmallDriverParams());
  ASSERT_TRUE(driver.Run().ok());
  const ShardDriverStats& st = driver.stats();

  EXPECT_EQ(st.shards, 4u);
  EXPECT_GT(st.elapsed_ns, 0);
  EXPECT_EQ(st.mt.ops_serviced, 8u * 40u);
  uint64_t shard_ops = 0;
  for (const auto& s : st.per_shard) {
    shard_ops += s.ops;
    EXPECT_GE(s.clock_end_ns, 0);
  }
  // Every serviced op lands on exactly one shard.
  EXPECT_EQ(shard_ops, st.mt.ops_serviced);
  EXPECT_EQ(st.mt.latency.count(), st.mt.ops_serviced);
  // With 4 dirs/client over 4 shards, placement scatters work: more than
  // one shard serviced ops.
  int active = 0;
  for (const auto& s : st.per_shard) active += s.ops > 0;
  EXPECT_GT(active, 1);
  // The rename mix produced real renames, some of them cross-shard.
  const RouterStats& rs = (*router)->stats();
  EXPECT_GT(rs.renames_local + rs.renames_cross, 0u);
  EXPECT_EQ(st.renames_cross, rs.renames_cross);
  // Renames have their own slot (the write slot is the antagonist's), and
  // each cross-shard one is received by exactly one shard.
  EXPECT_EQ(st.mt.rename_latency.count(), rs.renames_local + rs.renames_cross);
  EXPECT_EQ(st.mt.write_latency.count(), 0u);
  uint64_t renames_in = 0;
  for (const auto& s : st.per_shard) renames_in += s.renames_in;
  EXPECT_EQ(renames_in, rs.renames_cross);
}

TEST(ShardDriverTest, AnOpMixOverOneHundredPercentIsRejected) {
  // 40/40/21 used to run silently as 40/40/0: no renames at all.
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(4));
  ASSERT_TRUE(router.ok());
  ShardDriverParams p;
  p.rename_pct = 21;
  ShardDriver driver(router->get(), p);
  EXPECT_EQ(driver.Run().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(driver.stats().mt.ops_serviced, 0u);
}

// Each shard's syncer throttles its own writers: only offenders are
// suspended, every op still runs, and each shard's deferred flush is
// tagged with a client that crossed that shard's watermark.
TEST(ShardDriverTest, BackpressureIsPerShard) {
  sim::SimConfig config = ShardConfig(2);
  config.metadata = fs::MetadataPolicy::kDelayed;
  config.syncer = true;
  config.cache_blocks = 256;
  config.dirty_high_watermark = 0.25;
  config.syncer_interval = SimTime::Seconds(1000);  // throttle only
  config.syncer_max_age = SimTime::Seconds(1000);
  auto router = ShardRouter::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(router.ok());
  ShardDriverParams p;
  p.clients = 8;
  p.ops_per_client = 48;
  p.create_pct = 70;  // mutation-heavy: everyone pushes dirty data
  p.read_pct = 20;
  ShardDriver driver(router->get(), p);
  ASSERT_TRUE(driver.Run().ok());
  const ShardDriverStats& st = driver.stats();
  EXPECT_GT(st.mt.suspensions, 0u);
  EXPECT_EQ(st.mt.ops_serviced, 8u * 48u);
  int throttled = 0;
  for (uint32_t s = 0; s < (*router)->shards(); ++s) {
    io::Syncer* syncer = (*router)->env(s)->syncer();
    if (syncer->stats().throttle_flushes == 0) continue;
    ++throttled;
    const uint64_t payer = syncer->last_throttle_client();
    ASSERT_LT(payer, st.mt.per_client.size());
    EXPECT_GT(st.mt.per_client[payer].suspensions, 0u) << "shard " << s;
  }
  EXPECT_GT(throttled, 0);
}

TEST(ShardDriverTest, SameSeedSameRun) {
  ShardDriverStats runs[2];
  for (int i = 0; i < 2; ++i) {
    auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(4));
    ASSERT_TRUE(router.ok());
    ShardDriver driver(router->get(), SmallDriverParams());
    ASSERT_TRUE(driver.Run().ok());
    runs[i] = driver.TakeStats();
  }
  EXPECT_EQ(runs[0].elapsed_ns, runs[1].elapsed_ns);
  EXPECT_EQ(runs[0].renames_cross, runs[1].renames_cross);
  EXPECT_EQ(runs[0].mt.service_ns, runs[1].mt.service_ns);
  ASSERT_EQ(runs[0].per_shard.size(), runs[1].per_shard.size());
  for (size_t s = 0; s < runs[0].per_shard.size(); ++s) {
    EXPECT_EQ(runs[0].per_shard[s].ops, runs[1].per_shard[s].ops);
    EXPECT_EQ(runs[0].per_shard[s].service_ns, runs[1].per_shard[s].service_ns);
    EXPECT_EQ(runs[0].per_shard[s].clock_end_ns,
              runs[1].per_shard[s].clock_end_ns);
  }
}

TEST(ShardDriverTest, DevtreeModeRuns) {
  auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(2));
  ASSERT_TRUE(router.ok());
  ShardDriverParams p = SmallDriverParams();
  p.devtree = true;
  p.rename_pct = 0;
  ShardDriver driver(router->get(), p);
  ASSERT_TRUE(driver.Run().ok());
  const ShardDriverStats& st = driver.stats();
  EXPECT_EQ(st.mt.ops_serviced, 8u * 40u);
  EXPECT_GT(st.mt.create_latency.count(), 0u);
  EXPECT_GT(st.mt.read_latency.count(), 0u);
}

TEST(ShardDriverTest, MoreShardsFinishTheSameWorkSooner) {
  // The core scale-out claim in miniature: identical client load, M disks
  // overlap in simulated time, so aggregate elapsed (max shard clock) drops.
  ShardDriverParams p;
  p.clients = 8;
  p.ops_per_client = 64;
  p.dirs_per_client = 4;
  p.create_pct = 40;
  p.read_pct = 40;
  p.seed = 7;
  int64_t elapsed1 = 0;
  int64_t elapsed4 = 0;
  {
    auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(1));
    ASSERT_TRUE(router.ok());
    ShardDriver driver(router->get(), p);
    ASSERT_TRUE(driver.Run().ok());
    elapsed1 = driver.stats().elapsed_ns;
  }
  {
    auto router = ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(4));
    ASSERT_TRUE(router.ok());
    ShardDriver driver(router->get(), p);
    ASSERT_TRUE(driver.Run().ok());
    elapsed4 = driver.stats().elapsed_ns;
  }
  EXPECT_GT(elapsed1, 0);
  EXPECT_LT(elapsed4, elapsed1);
}

}  // namespace
}  // namespace cffs::shard
