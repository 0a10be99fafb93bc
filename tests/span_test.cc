// Tests for the cross-layer span tracker (src/obs/span.h) and the
// time-series sampler (src/obs/sampler.h): attribution sinks, the pre-op
// boundary window, override scoping, the phase-sum invariant, span-tree
// segments, the top-N list, sampler decimation — and one integration test
// that forces the dirty-watermark throttle and checks that the stall is
// measured and attributed as the throttle_stall phase.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/obs/sampler.h"
#include "src/obs/span.h"
#include "src/sim/sim_env.h"
#include "src/stats/collect.h"
#include "src/workload/smallfile.h"

namespace cffs {
namespace {

using obs::FsOp;
using obs::Phase;
using obs::SpanTracker;

int P(Phase p) { return static_cast<int>(p); }

TEST(SpanTrackerTest, UnattributedTimeGoesToBackground) {
  SpanTracker t;
  t.Attribute(Phase::kCpu, 100, 0);
  t.Attribute(Phase::kSeek, 50, 100);
  EXPECT_EQ(t.breakdown().background.ns[P(Phase::kCpu)], 100);
  EXPECT_EQ(t.breakdown().background.ns[P(Phase::kSeek)], 50);
  EXPECT_EQ(t.breakdown().ops_finished, 0u);
}

TEST(SpanTrackerTest, PhaseSumEqualsEndToEnd) {
  SpanTracker t;
  t.BeginOp(FsOp::kCreate, 1, 1000);
  t.Attribute(Phase::kCpu, 200, 1000);
  t.Attribute(Phase::kSeek, 300, 1200);
  t.Attribute(Phase::kTransfer, 500, 1500);
  t.EndOp(2000);

  const obs::PhaseBreakdown& b = t.breakdown();
  EXPECT_EQ(b.ops_finished, 1u);
  EXPECT_EQ(b.invariant_violations, 0u);
  const obs::OpTypeBreakdown* create = b.ForOp(FsOp::kCreate);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->count(), 1u);
  EXPECT_EQ(create->e2e_total_ns, 1000);
  EXPECT_EQ(create->totals.TotalNs(), 1000);
}

TEST(SpanTrackerTest, JsonCarriesExactPhaseTotalsAndOneE2eSummary) {
  SpanTracker t;
  t.BeginOp(FsOp::kCreate, 1, 0);
  t.Attribute(Phase::kSeek, 300, 0);
  t.Attribute(Phase::kCpu, 100, 300);
  t.Attribute(Phase::kSeek, 600, 400);
  t.EndOp(1000);
  const obs::Json j = t.breakdown().ToJson();
  const obs::Json& create = *j.Find("per_op")->Find("create");
  // A phase is its exact total and its number of charges, nothing more.
  EXPECT_EQ(create.Find("phases")->Find("seek")->Dump(),
            R"({"ns":900,"count":2})");
  // The e2e summary is obs::ToJson's, plus the exact total; its
  // percentiles stop at the largest sample.
  obs::Json want = obs::ToJson(t.breakdown().ForOp(FsOp::kCreate)->e2e);
  want.Set("total_ns", 1000);
  EXPECT_EQ(create.Find("e2e")->Dump(), want.Dump());
  EXPECT_EQ(want.Find("p99_ns")->as_int(), 1000);
  EXPECT_EQ(want.Find("buckets"), nullptr);
}

TEST(SpanTrackerTest, ResidualCountsAsViolation) {
  SpanTracker t;
  // 1000 ns elapse but only 400 are attributed: the op must be flagged.
  t.BeginOp(FsOp::kRead, 1, 0);
  t.Attribute(Phase::kCpu, 400, 0);
  t.EndOp(1000);
  EXPECT_EQ(t.breakdown().invariant_violations, 1u);
  EXPECT_EQ(t.breakdown().max_residual_ns, 600);
}

TEST(SpanTrackerTest, BoundaryWindowIsAbsorbedByNextOp) {
  SpanTracker t;
  // ChargeCpu at the call boundary: the CPU lands in the pending window...
  t.OpenBoundary(500);
  t.Attribute(Phase::kCpu, 100, 500);
  // ...and the next depth-0 BeginOp claims it, extending its start back.
  t.BeginOp(FsOp::kWrite, 7, 600);
  t.Attribute(Phase::kTransfer, 400, 600);
  t.EndOp(1000);

  const obs::OpTypeBreakdown* w = t.breakdown().ForOp(FsOp::kWrite);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->e2e_total_ns, 500);  // 500..1000, not 600..1000
  EXPECT_EQ(w->totals.ns[P(Phase::kCpu)], 100);
  EXPECT_EQ(w->totals.ns[P(Phase::kTransfer)], 400);
  EXPECT_EQ(t.breakdown().invariant_violations, 0u);
}

TEST(SpanTrackerTest, BoundaryWindowIgnoredMidOp) {
  SpanTracker t;
  t.BeginOp(FsOp::kRead, 1, 0);
  t.OpenBoundary(100);  // mid-op: must not open a pending window
  t.Attribute(Phase::kCpu, 100, 100);
  t.EndOp(100);
  // A later op must NOT inherit anything from that boundary call.
  t.BeginOp(FsOp::kRead, 2, 700);
  t.Attribute(Phase::kCpu, 300, 700);
  t.EndOp(1000);
  const obs::OpTypeBreakdown* r = t.breakdown().ForOp(FsOp::kRead);
  EXPECT_EQ(r->e2e_total_ns, 100 + 300);
  EXPECT_EQ(t.breakdown().invariant_violations, 0u);
}

TEST(SpanTrackerTest, NestedOpFoldsIntoParent) {
  SpanTracker t;
  t.BeginOp(FsOp::kCreate, 1, 0);
  t.Attribute(Phase::kCpu, 100, 0);
  t.BeginOp(FsOp::kLookup, 2, 100);  // nested child (create resolves a path)
  t.Attribute(Phase::kSeek, 200, 100);
  t.EndOp(300);
  t.Attribute(Phase::kTransfer, 700, 300);
  t.EndOp(1000);

  const obs::PhaseBreakdown& b = t.breakdown();
  EXPECT_EQ(b.ops_finished, 2u);
  EXPECT_EQ(b.invariant_violations, 0u);
  // The child keeps its own exact ledger...
  const obs::OpTypeBreakdown* lookup = b.ForOp(FsOp::kLookup);
  EXPECT_EQ(lookup->e2e_total_ns, 200);
  EXPECT_EQ(lookup->totals.ns[P(Phase::kSeek)], 200);
  // ...and its time also folds into the parent so the parent stays exact.
  const obs::OpTypeBreakdown* create = b.ForOp(FsOp::kCreate);
  EXPECT_EQ(create->e2e_total_ns, 1000);
  EXPECT_EQ(create->totals.ns[P(Phase::kSeek)], 200);
  EXPECT_EQ(create->totals.TotalNs(), 1000);
}

TEST(SpanTrackerTest, OverrideReclassifiesAndOutermostWins) {
  SpanTracker t;
  t.BeginOp(FsOp::kWrite, 1, 0);
  {
    SpanTracker::OverrideScope outer(&t, Phase::kThrottleStall);
    t.Attribute(Phase::kCpu, 100, 0);
    {
      // A nested scope must NOT re-reclassify: the outermost context owns
      // the story.
      SpanTracker::OverrideScope inner(&t, Phase::kQueueWait);
      t.Attribute(Phase::kTransfer, 200, 100);
    }
    t.Attribute(Phase::kSeek, 300, 300);
  }
  t.Attribute(Phase::kCpu, 400, 600);  // scope closed: back to normal
  t.EndOp(1000);

  const obs::OpTypeBreakdown* w = t.breakdown().ForOp(FsOp::kWrite);
  EXPECT_EQ(w->totals.ns[P(Phase::kThrottleStall)], 600);
  EXPECT_EQ(w->totals.ns[P(Phase::kQueueWait)], 0);
  EXPECT_EQ(w->totals.ns[P(Phase::kCpu)], 400);
  EXPECT_EQ(w->totals.TotalNs(), 1000);
}

TEST(SpanTrackerTest, NullTrackerOverrideIsSafe) {
  SpanTracker::OverrideScope scope(nullptr, Phase::kQueueWait);
  // Nothing to assert beyond "does not crash": call sites pass their
  // maybe-unwired pointer straight through.
}

TEST(SpanTrackerTest, AttributeDiskSplitsCommandExactly) {
  SpanTracker t;
  t.BeginOp(FsOp::kRead, 1, 0);
  t.AttributeDisk(/*start_ns=*/0, /*seek_ns=*/300, /*rotation_ns=*/200,
                  /*transfer_ns=*/400, /*overhead_ns=*/100, /*lba=*/777);
  t.EndOp(1000);

  const obs::OpTypeBreakdown* r = t.breakdown().ForOp(FsOp::kRead);
  EXPECT_EQ(r->totals.ns[P(Phase::kSeek)], 300);
  EXPECT_EQ(r->totals.ns[P(Phase::kRotation)], 200);
  EXPECT_EQ(r->totals.ns[P(Phase::kTransfer)], 400);
  EXPECT_EQ(r->totals.ns[P(Phase::kOverhead)], 100);
  EXPECT_EQ(r->totals.TotalNs(), 1000);
  EXPECT_EQ(t.breakdown().invariant_violations, 0u);

  // The span tree orders the slices as the command actually spends them
  // (overhead, seek, rotation, transfer) and carries the LBA.
  const auto slow = t.SlowestOps();
  ASSERT_EQ(slow.size(), 1u);
  ASSERT_EQ(slow[0].segments.size(), 4u);
  EXPECT_EQ(slow[0].segments[0].phase, Phase::kOverhead);
  EXPECT_EQ(slow[0].segments[1].phase, Phase::kSeek);
  EXPECT_EQ(slow[0].segments[2].phase, Phase::kRotation);
  EXPECT_EQ(slow[0].segments[3].phase, Phase::kTransfer);
  for (const auto& s : slow[0].segments) EXPECT_EQ(s.detail, 777u);
}

TEST(SpanTrackerTest, AdjacentSegmentsMergeAndOverflowIsCounted) {
  SpanTracker t;
  t.BeginOp(FsOp::kSync, 1, 0);
  // Two adjacent same-phase slices merge into one segment.
  t.Attribute(Phase::kTransfer, 100, 0);
  t.Attribute(Phase::kTransfer, 100, 100);
  // Alternating phases from then on: no merging, so the segment list hits
  // kMaxSegments and the rest are counted as dropped.
  int64_t now = 200;
  for (int i = 0; i < 2 * static_cast<int>(SpanTracker::kMaxSegments); ++i) {
    t.Attribute(i % 2 ? Phase::kSeek : Phase::kCpu, 10, now);
    now += 10;
  }
  t.EndOp(now);

  const auto slow = t.SlowestOps();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].segments.size(), SpanTracker::kMaxSegments);
  EXPECT_EQ(slow[0].segments[0].dur_ns, 200);  // the merged transfer pair
  EXPECT_GT(slow[0].segments_dropped, 0u);
  // Dropped segments only thin the rendering; the ledger stays exact.
  EXPECT_EQ(slow[0].phases.TotalNs(), slow[0].e2e_ns());
  EXPECT_EQ(t.breakdown().invariant_violations, 0u);
}

TEST(SpanTrackerTest, CacheHitsCountWithoutTime) {
  SpanTracker t;
  t.CountHit();  // no op open: background
  t.BeginOp(FsOp::kLookup, 1, 0);
  t.CountHit();
  t.CountHit();
  t.EndOp(0);
  const obs::OpTypeBreakdown* l = t.breakdown().ForOp(FsOp::kLookup);
  EXPECT_EQ(l->totals.count[P(Phase::kCacheHit)], 2u);
  EXPECT_EQ(l->totals.ns[P(Phase::kCacheHit)], 0);
  EXPECT_EQ(t.breakdown().background.count[P(Phase::kCacheHit)], 1u);
  EXPECT_EQ(t.breakdown().invariant_violations, 0u);
}

TEST(SpanTrackerTest, TopNKeepsTheSlowest) {
  SpanTracker t;
  t.set_top_n(2);
  int64_t now = 0;
  const int64_t durs[] = {100, 900, 300, 700};
  for (int i = 0; i < 4; ++i) {
    t.BeginOp(FsOp::kRead, static_cast<uint64_t>(i + 1), now);
    t.Attribute(Phase::kCpu, durs[i], now);
    now += durs[i];
    t.EndOp(now);
  }
  const auto slow = t.SlowestOps();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].e2e_ns(), 900);
  EXPECT_EQ(slow[1].e2e_ns(), 700);
  EXPECT_EQ(slow[0].op_id, 2u);
}

TEST(SpanTrackerTest, ResetClearsAggregatesAndPendingWindow) {
  SpanTracker t;
  t.OpenBoundary(0);
  t.Attribute(Phase::kCpu, 100, 0);
  t.Reset();
  // The cleared boundary window must not leak into the next op.
  t.BeginOp(FsOp::kRead, 1, 500);
  t.Attribute(Phase::kCpu, 100, 500);
  t.EndOp(600);
  EXPECT_EQ(t.breakdown().ops_finished, 1u);
  EXPECT_EQ(t.breakdown().ForOp(FsOp::kRead)->e2e_total_ns, 100);
  EXPECT_EQ(t.breakdown().invariant_violations, 0u);
}

// --- TimeSeriesSampler ---

TEST(TimeSeriesSamplerTest, DueRespectsInterval) {
  obs::TimeSeriesSampler s(SimTime::Millis(10));
  EXPECT_FALSE(s.Due(5'000'000));
  EXPECT_TRUE(s.Due(10'000'000));
  obs::TimeSample row;
  row.ts_ns = 10'000'000;
  s.Record(row);
  EXPECT_FALSE(s.Due(15'000'000));
  EXPECT_TRUE(s.Due(20'000'000));
}

TEST(TimeSeriesSamplerTest, DecimatesWhenFullAndDoublesInterval) {
  obs::TimeSeriesSampler s(SimTime::Millis(1), /*max_samples=*/8);
  for (int i = 0; i < 9; ++i) {
    obs::TimeSample row;
    row.ts_ns = (i + 1) * 1'000'000;
    row.dirty_blocks = static_cast<uint64_t>(i);
    s.Record(row);
  }
  // The 9th record triggered decimation: every other survivor of the first
  // 8, then the new sample — still covering the whole run.
  ASSERT_EQ(s.samples().size(), 5u);
  EXPECT_EQ(s.samples()[0].dirty_blocks, 0u);
  EXPECT_EQ(s.samples()[1].dirty_blocks, 2u);
  EXPECT_EQ(s.samples()[3].dirty_blocks, 6u);
  EXPECT_EQ(s.samples()[4].dirty_blocks, 8u);
  EXPECT_EQ(s.interval().nanos(), 2'000'000);
}

// --- the forced-throttle integration test ---

// Drives delayed-metadata writes against a tiny buffer cache with the
// deadline flusher pushed out of the picture, so the dirty-page high
// watermark is the ONLY flush trigger. The write stalls must then show up
// in all three places the tentpole wires them to: the syncer's
// throttle_stall_ns counter, the throttle_flushes count, and the
// throttle_stall span phase of the stalled ops.
TEST(ThrottleSpanTest, StallTimeIsMeasuredAndAttributed) {
  for (const sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    sim::SimConfig config;
    // A low watermark on a roomy cache: dirty blocks accumulate without
    // eviction write-back (which would flush whole clusters and keep the
    // count down), so the watermark is genuinely what fires.
    config.cache_blocks = 256;
    config.dirty_high_watermark = 0.2;  // throttle at ~51 dirty blocks
    config.metadata = fs::MetadataPolicy::kDelayed;
    config.syncer = true;
    config.syncer_interval = SimTime::Seconds(1000);
    config.syncer_max_age = SimTime::Seconds(1000);
    auto env_or = sim::SimEnv::Create(kind, config);
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    sim::SimEnv* env = env_or->get();

    const std::vector<uint8_t> payload(4096, 0x5a);  // 1 block per file
    ASSERT_TRUE(env->path().MkdirAll("d").ok());
    for (int i = 0; i < 60; ++i) {
      env->ChargeCpu();
      auto ino = env->path().CreateFile("d/f" + std::to_string(i));
      ASSERT_TRUE(ino.ok()) << ino.status().ToString();
      env->ChargeCpu(payload.size());
      auto n = env->fs()->Write(*ino, 0, payload);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
    }
    ASSERT_TRUE(env->syncer_status().ok());

    const stats::MetricsSnapshot snap = stats::Snapshot(*env);
    const auto violations = snap.CheckInvariants();
    for (const std::string& v : violations) ADD_FAILURE() << v;

    EXPECT_GT(snap.syncer.throttle_flushes, 0u);
    EXPECT_GT(snap.syncer.throttle_stall_ns, 0u);

    // Every nanosecond of stall is attributed to some sink's
    // throttle_stall phase (ops that hit the watermark, or the boundary
    // window of the call that did).
    int64_t attributed = snap.spans.background.ns[P(Phase::kThrottleStall)];
    for (int i = 0; i < obs::kTrackedOps; ++i) {
      attributed += snap.spans.per_op[i].totals.ns[P(Phase::kThrottleStall)];
    }
    EXPECT_EQ(attributed,
              static_cast<int64_t>(snap.syncer.throttle_stall_ns));
    EXPECT_EQ(snap.spans.invariant_violations, 0u);
  }
}

// Rename, rmdir and link each open their own span: their disk time lands
// neither in the background bucket (meant for mount and format I/O) nor in
// the boundary window of whichever op comes next.
TEST(NamespaceSpanTest, RenameRmdirAndLinkEachOpenASpan) {
  for (const sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    auto env_or = sim::SimEnv::Create(kind, sim::SimConfig{});
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    sim::SimEnv* env = env_or->get();
    fs::PathOps& p = env->path();
    ASSERT_TRUE(p.MkdirAll("/a/d").ok());
    ASSERT_TRUE(p.MkdirAll("/b").ok());
    ASSERT_TRUE(p.WriteFile("/a/f", std::vector<uint8_t>(1024, 1)).ok());
    ASSERT_TRUE(p.WriteFile("/a/g", std::vector<uint8_t>(1024, 2)).ok());
    const fs::InodeNum b = *p.Resolve("/b");
    const fs::InodeNum g = *p.Resolve("/a/g");
    ASSERT_TRUE(env->fs()->Sync().ok());
    env->ResetStats();
    const int64_t start_ns = env->clock().now().nanos();

    env->ChargeCpu();
    ASSERT_TRUE(p.Rename("/a/f", "/b/f").ok());
    env->ChargeCpu();
    ASSERT_TRUE(p.Rmdir("/a/d").ok());
    env->ChargeCpu();
    ASSERT_TRUE(env->fs()->Link(b, "g2", g).ok());
    ASSERT_TRUE(p.Resolve("/b/g2").ok());

    const stats::MetricsSnapshot snap = stats::Snapshot(*env);
    for (const std::string& v : snap.CheckInvariants()) ADD_FAILURE() << v;
    const std::string name = sim::FsKindName(kind);
    EXPECT_EQ(snap.spans.background.TotalNs(), 0) << name;
    for (const FsOp op : {FsOp::kRename, FsOp::kRmdir, FsOp::kLink}) {
      EXPECT_EQ(snap.spans.ForOp(op)->count(), 1u)
          << name << " " << obs::FsOpName(op);
      EXPECT_GT(snap.spans.ForOp(op)->e2e_total_ns, 0)
          << name << " " << obs::FsOpName(op);
    }
    EXPECT_EQ(snap.fs_ops.renames, 1u) << name;
    EXPECT_EQ(snap.fs_ops.rmdirs, 1u) << name;
    EXPECT_EQ(snap.fs_ops.links, 1u) << name;
    int64_t e2e_ns = 0;
    for (const obs::OpTypeBreakdown& op : snap.spans.per_op) {
      e2e_ns += op.e2e_total_ns;
    }
    EXPECT_EQ(e2e_ns, env->clock().now().nanos() - start_ns) << name;
  }
}

}  // namespace
}  // namespace cffs
