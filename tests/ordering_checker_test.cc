// Write-ordering analyzer tests: synthetic rule edges first (hand-built
// event streams), then end-to-end runs — clean workloads on every
// configuration must produce zero violations, and the two deliberate
// mutations (misordered FFS create, suppressed free-map write-back) must
// each be flagged with the right rule.
#include <gtest/gtest.h>

#include "src/check/ordering_checker.h"
#include "src/fs/ffs/ffs.h"
#include "src/io/syncer.h"
#include "src/sim/sim_env.h"
#include "src/workload/aging.h"
#include "src/workload/smallfile.h"
#include "src/workload/trace.h"

namespace cffs {
namespace {

using check::OrderingChecker;
using check::OrderingReport;
using check::RuleId;
using obs::EventKind;
using obs::MetaUpdateKind;
using obs::TraceEvent;
using sim::FsKind;

TraceEvent Meta(MetaUpdateKind kind, uint64_t home, uint64_t subject,
                uint64_t op, uint64_t aux = 0, bool flag = false) {
  TraceEvent e;
  e.kind = EventKind::kMetaUpdate;
  e.meta = kind;
  e.a = home;
  e.b = subject;
  e.op_id = op;
  e.aux = aux;
  e.flag = flag;
  return e;
}

TraceEvent Commit(uint64_t bno, uint64_t count, uint64_t epoch) {
  TraceEvent e;
  e.kind = EventKind::kBlockWrite;
  e.a = bno;
  e.b = count;
  e.aux = epoch;
  return e;
}

OrderingReport Check(const std::vector<TraceEvent>& events) {
  OrderingChecker checker;
  for (const TraceEvent& e : events) checker.Consume(e);
  return checker.Finish();
}

// --- R-CREATE -------------------------------------------------------------

TEST(OrderingCheckerTest, NameCommittedBeforeInodeIsFlagged) {
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, /*home=*/10, /*inum=*/5, /*op=*/1),
      Meta(MetaUpdateKind::kDentryAdd, /*home=*/20, /*inum=*/5, /*op=*/1,
           /*dir=*/2),
      Commit(20, 1, 1),  // the name reaches the disk first
      Commit(10, 1, 2),
  });
  EXPECT_EQ(report.CountRule(RuleId::kCreateOrder), 1u);
}

TEST(OrderingCheckerTest, InodeBeforeNameIsClean) {
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, 10, 5, 1),
      Meta(MetaUpdateKind::kDentryAdd, 20, 5, 1, 2),
      Commit(10, 1, 1),
      Commit(20, 1, 2),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

TEST(OrderingCheckerTest, SameCommitEpochIsAtomicAndExempt) {
  // Both blocks travel in one scheduler batch: one atomic commit, no edge.
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, 10, 5, 1),
      Meta(MetaUpdateKind::kDentryAdd, 20, 5, 1, 2),
      Commit(20, 1, 7),
      Commit(10, 1, 7),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

TEST(OrderingCheckerTest, SameBlockIsExemptBecauseOneWriteCommitsBoth) {
  // Name and inode share a block (the embedded-inode shape): a single
  // write commits both — the paper's "one atomic write replaces two".
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, 10, 5, 1),
      Meta(MetaUpdateKind::kDentryAdd, 10, 5, 1, 2),
      Commit(10, 1, 1),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

TEST(OrderingCheckerTest, InodePredatingTheTraceIsTolerated) {
  // Ring-buffer drop tolerance: a dentry-add naming an inode whose init
  // is outside the retained history is not a violation.
  auto report = Check({
      Meta(MetaUpdateKind::kDentryAdd, 20, 5, 1, 2),
      Commit(20, 1, 1),
  });
  EXPECT_EQ(report.CountRule(RuleId::kCreateOrder), 0u);
}

TEST(OrderingCheckerTest, MisorderedInitOfSameOpIsFoundAfterTheName) {
  // The mutated create annotates the name before the init; matching by
  // op id still pairs them, and the epoch order convicts the run.
  auto report = Check({
      Meta(MetaUpdateKind::kDentryAdd, 20, 5, /*op=*/9, 2),
      Meta(MetaUpdateKind::kInodeInit, 10, 5, /*op=*/9),
      Commit(20, 1, 1),
      Commit(10, 1, 2),
  });
  EXPECT_EQ(report.CountRule(RuleId::kCreateOrder), 1u);
}

// --- R-REMOVE / R-FREEMAP -------------------------------------------------

TEST(OrderingCheckerTest, InodeFreedBeforeNameRemovalIsFlagged) {
  auto report = Check({
      Meta(MetaUpdateKind::kDentryRemove, 20, 5, /*op=*/3, 2),
      Meta(MetaUpdateKind::kInodeFree, 10, 5, /*op=*/3),
      Commit(10, 1, 1),  // inode freed on disk while the name persists
      Commit(20, 1, 2),
  });
  EXPECT_EQ(report.CountRule(RuleId::kRemoveOrder), 1u);
}

TEST(OrderingCheckerTest, NameRemovalBeforeInodeFreeIsClean) {
  auto report = Check({
      Meta(MetaUpdateKind::kDentryRemove, 20, 5, 3, 2),
      Meta(MetaUpdateKind::kInodeFree, 10, 5, 3),
      Commit(20, 1, 1),
      Commit(10, 1, 2),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

TEST(OrderingCheckerTest, BlockFreedBeforeNameRemovalIsFlagged) {
  auto report = Check({
      Meta(MetaUpdateKind::kDentryRemove, 20, 5, /*op=*/3, 2),
      Meta(MetaUpdateKind::kFreeMapFree, /*bitmap=*/30, /*bno=*/99, /*op=*/3),
      Commit(30, 1, 1),
      Commit(20, 1, 2),
  });
  EXPECT_EQ(report.CountRule(RuleId::kFreeMapOrder), 1u);
}

TEST(OrderingCheckerTest, TruncateStyleFreeWithoutNameIsClean) {
  // Frees with no dentry-remove in the same operation carry no edge.
  auto report = Check({
      Meta(MetaUpdateKind::kFreeMapFree, 30, 99, /*op=*/4),
      Commit(30, 1, 1),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

// --- R-GROUP --------------------------------------------------------------

TEST(OrderingCheckerTest, GroupedDataAheadOfItsMapIsFlagged) {
  auto report = Check({
      Meta(MetaUpdateKind::kMapUpdate, /*home=*/10, /*inum=*/5, /*op=*/6,
           /*data bno=*/50, /*grouped=*/true),
      Commit(50, 1, 1),  // data block lands before the map that owns it
      Commit(10, 1, 2),
  });
  EXPECT_EQ(report.CountRule(RuleId::kGroupOrder), 1u);
}

TEST(OrderingCheckerTest, MapBeforeGroupedDataIsClean) {
  auto report = Check({
      Meta(MetaUpdateKind::kMapUpdate, 10, 5, 6, 50, true),
      Commit(10, 1, 1),
      Commit(50, 1, 2),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

TEST(OrderingCheckerTest, GroupedDataAndMapInOneBatchIsClean) {
  auto report = Check({
      Meta(MetaUpdateKind::kMapUpdate, 10, 5, 6, 50, true),
      Commit(50, 1, 3),
      Commit(10, 1, 3),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

// --- R-LOST ---------------------------------------------------------------

TEST(OrderingCheckerTest, AnnotationThatNeverCommitsIsALostUpdate) {
  auto report = Check({
      Meta(MetaUpdateKind::kFreeMapFree, 30, 99, 3),
      // No write of block 30 ever happens.
  });
  EXPECT_EQ(report.CountRule(RuleId::kLostUpdate), 1u);
  EXPECT_TRUE(report.lost_update_checked);
}

TEST(OrderingCheckerTest, LostUpdatePassSkippedWhenHistoryWasDropped) {
  OrderingChecker checker;
  checker.NoteDropped(12);
  checker.Consume(Meta(MetaUpdateKind::kFreeMapFree, 30, 99, 3));
  auto report = checker.Finish();
  EXPECT_FALSE(report.lost_update_checked);
  EXPECT_EQ(report.CountRule(RuleId::kLostUpdate), 0u);
}

TEST(OrderingCheckerTest, UpdatesHomedOnAFreedBlockAreMoot) {
  // A dir block with a buffered dentry-add is itself freed: the buffered
  // update can never matter, so it is exempt from R-LOST (and the rest).
  auto report = Check({
      Meta(MetaUpdateKind::kDentryAdd, /*home=*/20, 5, 1, 2),
      Meta(MetaUpdateKind::kFreeMapFree, 30, /*freed bno=*/20, /*op=*/8),
      Commit(30, 1, 1),
  });
  EXPECT_EQ(report.CountRule(RuleId::kLostUpdate), 0u);
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

// --- R-EMBED --------------------------------------------------------------

TEST(OrderingCheckerTest, EmbeddedEntryWithSameBlockInodeIsClean) {
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, 20, 5, 1),
      Meta(MetaUpdateKind::kDentryAdd, 20, 5, 1, 2, /*embedded=*/true),
      Commit(20, 1, 1),
  });
  EXPECT_TRUE(report.clean()) << report.ToJson();
}

TEST(OrderingCheckerTest, EmbeddedEntrySplitFromItsInodeIsFlagged) {
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, /*home=*/10, 5, 1),
      Meta(MetaUpdateKind::kDentryAdd, /*home=*/20, 5, 1, 2,
           /*embedded=*/true),
      Commit(10, 1, 1),
      Commit(20, 1, 2),
  });
  EXPECT_EQ(report.CountRule(RuleId::kEmbeddedSplit), 1u);
}

// --- report plumbing ------------------------------------------------------

TEST(OrderingCheckerTest, ReportJsonCarriesCountsAndRuleNames) {
  auto report = Check({
      Meta(MetaUpdateKind::kInodeInit, 10, 5, 1),
      Meta(MetaUpdateKind::kDentryAdd, 20, 5, 1, 2),
      Commit(20, 1, 1),
      Commit(10, 1, 2),
  });
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("cffs-ordercheck-v1"), std::string::npos);
  EXPECT_NE(json.find("R-CREATE"), std::string::npos);
  EXPECT_EQ(report.events, 4u);
  EXPECT_EQ(report.annotations, 2u);
  EXPECT_EQ(report.commits, 2u);
  EXPECT_EQ(report.epochs, 2u);
}

TEST(OrderingCheckerTest, AnnotatedTraceSurvivesRecordJsonRoundTrip) {
  obs::TraceRecorder trace(16);
  trace.Record(Meta(MetaUpdateKind::kInodeInit, 10, 5, 1));
  trace.Record(Meta(MetaUpdateKind::kDentryAdd, 20, 5, 1, 2, true));
  trace.Record(Commit(20, 2, 7));

  auto loaded = obs::TraceRecorder::FromRecordJson(trace.ToRecordJson());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto before = trace.Events();
  const auto after = loaded->Events();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].kind, after[i].kind) << i;
    EXPECT_EQ(before[i].meta, after[i].meta) << i;
    EXPECT_EQ(before[i].a, after[i].a) << i;
    EXPECT_EQ(before[i].b, after[i].b) << i;
    EXPECT_EQ(before[i].aux, after[i].aux) << i;
    EXPECT_EQ(before[i].op_id, after[i].op_id) << i;
    EXPECT_EQ(before[i].flag, after[i].flag) << i;
  }
  // And the analyzer sees the identical stream.
  const auto a = OrderingChecker::CheckTrace(trace);
  const auto b = OrderingChecker::CheckTrace(*loaded);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.annotations, b.annotations);
  EXPECT_EQ(a.commits, b.commits);
}

// --- end-to-end: real file systems, real workloads ------------------------

std::unique_ptr<sim::SimEnv> MakeEnv(FsKind kind, fs::MetadataPolicy policy) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  config.metadata = policy;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok());
  return std::move(*env);
}

TEST(OrderingCheckerEndToEnd, SmallFileWorkloadIsCleanEverywhere) {
  for (FsKind kind : {FsKind::kFfs, FsKind::kConventional, FsKind::kEmbedOnly,
                      FsKind::kGroupOnly, FsKind::kCffs}) {
    for (auto policy :
         {fs::MetadataPolicy::kSynchronous, fs::MetadataPolicy::kDelayed}) {
      auto env = MakeEnv(kind, policy);
      env->EnableTrace();
      workload::SmallFileParams params;
      params.num_files = 60;
      params.num_dirs = 3;
      ASSERT_TRUE(workload::RunSmallFile(env.get(), params).ok());
      ASSERT_TRUE(env->fs()->Sync().ok());
      auto report = OrderingChecker::CheckTrace(*env->trace());
      EXPECT_TRUE(report.clean())
          << sim::FsKindName(kind) << "/"
          << (policy == fs::MetadataPolicy::kSynchronous ? "sync" : "delayed")
          << ": " << report.ToJson();
      EXPECT_GT(report.annotations, 0u);
      EXPECT_GT(report.commits, 0u);
      EXPECT_EQ(report.dropped, 0u);
    }
  }
}

TEST(OrderingCheckerEndToEnd, AgingChurnIsCleanOnBothFileSystems) {
  // Create/delete churn with mixed file sizes exercises the remove and
  // free-map edges far more than the phased small-file benchmark.
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    for (auto policy :
         {fs::MetadataPolicy::kSynchronous, fs::MetadataPolicy::kDelayed}) {
      auto env = MakeEnv(kind, policy);
      env->EnableTrace();
      workload::AgingParams params;
      params.operations = 250;
      params.num_dirs = 6;
      params.max_file_bytes = 16 * 1024;
      params.target_utilization = 0.2;
      ASSERT_TRUE(workload::AgeFileSystem(env.get(), params).ok());
      ASSERT_TRUE(env->fs()->Sync().ok());
      auto report = OrderingChecker::CheckTrace(*env->trace());
      EXPECT_TRUE(report.clean())
          << sim::FsKindName(kind) << ": " << report.ToJson();
      EXPECT_GT(report.annotations, 0u);
    }
  }
}

TEST(OrderingCheckerEndToEnd, PostmarkIsCleanOnBothFileSystems) {
  // The PostMark transaction mix interleaves creates, deletes, reads and
  // appends in one phase, so create and remove edges overlap in the queue
  // instead of arriving in tidy benchmark phases. Sized to stay inside
  // the cache: an eviction is a single-block write the delayed policy
  // cannot order, and that is the cache's sizing, not the discipline
  // under test.
  for (FsKind kind : {FsKind::kFfs, FsKind::kCffs}) {
    for (auto policy :
         {fs::MetadataPolicy::kSynchronous, fs::MetadataPolicy::kDelayed}) {
      auto env = MakeEnv(kind, policy);
      env->EnableTrace();
      workload::PostmarkParams params;
      params.initial_files = 40;
      params.transactions = 120;
      params.num_dirs = 4;
      params.max_bytes = 4096;
      const workload::Trace trace = workload::GeneratePostmark(params);
      ASSERT_TRUE(workload::ReplayTrace(env.get(), trace).ok());
      ASSERT_TRUE(env->fs()->Sync().ok());
      auto report = OrderingChecker::CheckTrace(*env->trace());
      EXPECT_TRUE(report.clean())
          << sim::FsKindName(kind) << ": " << report.ToJson();
      EXPECT_GT(report.annotations, 0u);
    }
  }
}

TEST(OrderingCheckerEndToEnd, MutatedFfsCreateIsConvictedOfRCreate) {
  // The false-negative self-test: flip FFS's create into name-first order
  // and prove the analyzer flags every single create, the mkdir of /d
  // included (mkdir shares create's inode-before-name write).
  auto env = MakeEnv(FsKind::kFfs, fs::MetadataPolicy::kSynchronous);
  env->EnableTrace();
  static_cast<fs::FsBase*>(env->fs())->set_ordering_mutation_for_test(
      fs::FsBase::OrderingMutation::kDeferInodeInit);
  ASSERT_TRUE(env->path().MkdirAll("/d").ok());
  const fs::InodeNum d = *env->path().Resolve("/d");
  constexpr int kCreates = 12;
  for (int i = 0; i < kCreates; ++i) {
    ASSERT_TRUE(env->fs()->Create(d, "f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(env->fs()->Sync().ok());
  auto report = OrderingChecker::CheckTrace(*env->trace());
  EXPECT_EQ(report.CountRule(RuleId::kCreateOrder), kCreates + 1);
  EXPECT_FALSE(report.clean());

  // Same sequence without the mutation: clean.
  auto control = MakeEnv(FsKind::kFfs, fs::MetadataPolicy::kSynchronous);
  control->EnableTrace();
  ASSERT_TRUE(control->path().MkdirAll("/d").ok());
  const fs::InodeNum cd = *control->path().Resolve("/d");
  for (int i = 0; i < kCreates; ++i) {
    ASSERT_TRUE(control->fs()->Create(cd, "f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(control->fs()->Sync().ok());
  auto control_report = OrderingChecker::CheckTrace(*control->trace());
  EXPECT_TRUE(control_report.clean()) << control_report.ToJson();
}

TEST(OrderingCheckerEndToEnd, SyncerReorderFlushIsConvictedOfRCreate) {
  // Third self-test, aimed at the background syncer: splitting its flush
  // plan into per-block epochs issued in descending block order commits
  // dirent blocks before the inode blocks they name. The checker must
  // convict the run; the identical run with the atomic one-epoch flush
  // must be clean.
  auto make = [](io::SyncerMutation mutation) {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);
    config.blocks_per_cg = 1024;
    config.metadata = fs::MetadataPolicy::kDelayed;
    config.syncer = true;
    config.syncer_interval = SimTime::Seconds(1000);  // flush explicitly
    auto env_or = sim::SimEnv::Create(FsKind::kFfs, config);
    EXPECT_TRUE(env_or.ok());
    std::unique_ptr<sim::SimEnv> env = std::move(*env_or);
    env->EnableTrace();
    env->syncer()->set_mutation_for_test(mutation);
    EXPECT_TRUE(env->path().MkdirAll("/d").ok());
    const fs::InodeNum d = *env->path().Resolve("/d");
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(env->fs()->Create(d, "f" + std::to_string(i)).ok());
    }
    EXPECT_TRUE(env->syncer()->FlushNow().ok());
    EXPECT_TRUE(env->fs()->Sync().ok());
    return OrderingChecker::CheckTrace(*env->trace());
  };

  const auto convicted = make(io::SyncerMutation::kSyncerReorder);
  EXPECT_GE(convicted.CountRule(RuleId::kCreateOrder), 1u)
      << convicted.ToJson();
  EXPECT_FALSE(convicted.clean());

  const auto control = make(io::SyncerMutation::kNone);
  EXPECT_TRUE(control.clean()) << control.ToJson();
}

TEST(OrderingCheckerEndToEnd, SuppressedFreeMapWriteIsConvictedOfRLost) {
  // Second self-test: Free() clears the bitmap bit in memory but the
  // buffer is never marked dirty, so the clear can never reach the disk.
  auto env = MakeEnv(FsKind::kFfs, fs::MetadataPolicy::kSynchronous);
  ASSERT_TRUE(env->path().WriteFile("/victim",
                                    std::vector<uint8_t>(8192, 0xab)).ok());
  ASSERT_TRUE(env->fs()->Sync().ok());
  env->EnableTrace();
  auto* ffs = static_cast<fs::FfsFileSystem*>(env->fs());
  ffs->allocator()->set_skip_free_write_for_test(true);
  ASSERT_TRUE(env->path().Unlink("/victim").ok());
  ffs->allocator()->set_skip_free_write_for_test(false);
  ASSERT_TRUE(env->fs()->Sync().ok());
  auto report = OrderingChecker::CheckTrace(*env->trace());
  EXPECT_GE(report.CountRule(RuleId::kLostUpdate), 1u) << report.ToJson();
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace cffs
