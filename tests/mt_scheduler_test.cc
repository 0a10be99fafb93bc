// Tests for the multi-tenant layer (src/mt): the FIFO and DRR inter-client
// schedulers in isolation, the driver's determinism guarantee (same seed +
// same client count => byte-identical disk image and identical metrics),
// the backpressure machinery (only the offending client parks; the deferred
// throttle flush is charged to the watermark crosser), and the cross-layer
// invariants on a many-client run.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/check/ordering_checker.h"
#include "src/io/syncer.h"
#include "src/mt/driver.h"
#include "src/mt/scheduler.h"
#include "src/stats/collect.h"
#include "src/sim/sim_env.h"
#include "src/util/rng.h"

namespace cffs::mt {
namespace {

// --- FifoScheduler --------------------------------------------------------

TEST(FifoSchedulerTest, EarliestReadyWinsTiesByClientId) {
  FifoScheduler sched(4);
  const std::vector<uint8_t> none(4, 0);
  sched.Enqueue(2, 300);
  sched.Enqueue(0, 100);
  sched.Enqueue(3, 100);  // ties with client 0: lower id first
  sched.Enqueue(1, 200);
  uint64_t c = 99;
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 0u);
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 3u);
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 1u);
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 2u);
  EXPECT_FALSE(sched.PickNext(none, &c));
  EXPECT_EQ(sched.ready_count(), 0u);
}

TEST(FifoSchedulerTest, SuspendedClientsAreNeverPicked) {
  FifoScheduler sched(3);
  std::vector<uint8_t> suspended(3, 0);
  sched.Enqueue(0, 10);
  sched.Enqueue(1, 20);
  suspended[0] = 1;
  uint64_t c = 99;
  ASSERT_TRUE(sched.PickNext(suspended, &c));
  EXPECT_EQ(c, 1u);  // earliest ready is parked, next one runs
  // Client 0 kept its queue position: unsuspend and it is picked.
  EXPECT_TRUE(sched.IsReady(0));
  suspended[0] = 0;
  ASSERT_TRUE(sched.PickNext(suspended, &c));
  EXPECT_EQ(c, 0u);
  // All ready clients suspended => no pick.
  sched.Enqueue(2, 30);
  suspended[2] = 1;
  EXPECT_FALSE(sched.PickNext(suspended, &c));
  EXPECT_EQ(sched.ready_count(), 1u);  // the op was not consumed
}

// --- DrrScheduler ---------------------------------------------------------

// Each backlogged client gets its deficit share of service time even when
// per-op costs differ by an order of magnitude: the expensive client is
// simply served proportionally fewer ops.
TEST(DrrSchedulerTest, BackloggedClientsGetEqualServiceShares) {
  constexpr int64_t kQuantum = 100'000;  // 100us
  DrrScheduler sched(3, kQuantum);
  const std::vector<uint8_t> none(3, 0);
  // Per-op costs: client 0 is 10x client 2.
  const int64_t cost[3] = {50'000, 20'000, 5'000};
  int64_t service[3] = {0, 0, 0};
  for (uint64_t c = 0; c < 3; ++c) sched.Enqueue(c, 0);
  const int64_t target = 200 * kQuantum;  // run until total service ~600 quanta
  int64_t total = 0;
  while (total < 3 * target) {
    uint64_t c = 99;
    ASSERT_TRUE(sched.PickNext(none, &c));
    service[c] += cost[c];
    total += cost[c];
    sched.NoteServiced(c, cost[c]);
    sched.Enqueue(c, total);  // closed loop: immediately backlogged again
  }
  // Over a long backlogged interval every client's share converges to 1/3
  // within one quantum + one max-op of slop.
  const int64_t slop = kQuantum + cost[0];
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(static_cast<double>(service[c]), static_cast<double>(target),
                static_cast<double>(slop))
        << "client " << c;
  }
}

TEST(DrrSchedulerTest, IdleClientForfeitsBankedDeficit) {
  constexpr int64_t kQuantum = 1000;
  DrrScheduler sched(2, kQuantum);
  const std::vector<uint8_t> none(2, 0);
  // Client 0 runs alone and spends far past one quantum.
  sched.Enqueue(0, 0);
  uint64_t c = 99;
  ASSERT_TRUE(sched.PickNext(none, &c));
  ASSERT_EQ(c, 0u);
  sched.NoteServiced(0, 10 * kQuantum);
  EXPECT_LT(sched.deficit(0), 0);
  // While client 0 is absent, the ring walk zeroes its debt as it passes.
  // Serve client 1 past its quantum so the next pick must wrap the ring
  // (visiting the idle client 0) while granting client 1 its quanta.
  sched.Enqueue(1, 1);
  ASSERT_TRUE(sched.PickNext(none, &c));
  ASSERT_EQ(c, 1u);
  sched.NoteServiced(1, 3 * kQuantum);
  sched.Enqueue(1, 2);
  ASSERT_TRUE(sched.PickNext(none, &c));
  ASSERT_EQ(c, 1u);
  EXPECT_EQ(sched.deficit(0), 0);  // debt forgiven while not ready
}

TEST(DrrSchedulerTest, SingleClientAlwaysRunsImmediately) {
  DrrScheduler sched(1, 1000);
  const std::vector<uint8_t> none(1, 0);
  for (int i = 0; i < 50; ++i) {
    sched.Enqueue(0, i);
    uint64_t c = 99;
    ASSERT_TRUE(sched.PickNext(none, &c));
    EXPECT_EQ(c, 0u);
    sched.NoteServiced(0, 50'000);  // way past the quantum every op
  }
}

// The DRR pick as a plain ring walk that grants every eligible client one
// quantum per pass, however many passes it takes. DrrScheduler grants the
// passes that serve nobody at once; this is the reference it must match.
class RingWalkDrr : public OpScheduler {
 public:
  RingWalkDrr(uint32_t clients, int64_t quantum_ns)
      : OpScheduler(clients), quantum_ns_(quantum_ns), deficit_(clients, 0) {}
  SchedulerKind kind() const override { return SchedulerKind::kDrr; }

  void NoteServiced(uint64_t client, int64_t service_ns) override {
    deficit_[client] -= service_ns;
    if (deficit_[client] <= 0 && cursor_ == client) {
      cursor_ = (cursor_ + 1) % static_cast<uint32_t>(ready_.size());
    }
  }
  int64_t deficit(uint64_t client) const { return deficit_[client]; }

 protected:
  bool PickImpl(const std::vector<uint8_t>& suspended,
                uint64_t* client) override {
    const uint32_t n = static_cast<uint32_t>(ready_.size());
    bool any = false;
    for (uint32_t c = 0; c < n; ++c) {
      if (ready_[c] != kNotReady && !suspended[c]) {
        any = true;
        break;
      }
    }
    if (!any) return false;
    for (;;) {
      for (uint32_t step = 0; step < n; ++step) {
        const uint32_t c = cursor_;
        if (ready_[c] == kNotReady || suspended[c]) {
          deficit_[c] = 0;
          cursor_ = (cursor_ + 1) % n;
          continue;
        }
        if (deficit_[c] < 0) {
          deficit_[c] += quantum_ns_;
          if (deficit_[c] < 0) {
            cursor_ = (cursor_ + 1) % n;
            continue;
          }
        }
        *client = c;
        return true;
      }
    }
  }

 private:
  int64_t quantum_ns_;
  std::vector<int64_t> deficit_;
  uint32_t cursor_ = 0;
};

// Same pick and same deficit for every client after every pick, over random
// client counts, quanta, readiness and suspension, with about one op in
// four costing up to 300 quanta (the case the idle-pass grant shortcuts).
TEST(DrrSchedulerTest, IdlePassGrantMatchesTheRingWalk) {
  Rng rng(14);
  uint64_t picks = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const uint32_t n = static_cast<uint32_t>(rng.Range(1, 70));
    // Tiny quanta make deficits land on exact multiples of the quantum,
    // where an off-by-one in the idle-pass count shows.
    const int64_t quantum =
        rng.Below(2) == 0 ? rng.Range(1, 4) : rng.Range(1, 1'000'000);
    DrrScheduler fast(n, quantum);
    RingWalkDrr ref(n, quantum);
    std::vector<uint8_t> suspended(n, 0);
    const uint64_t ready_odds = rng.Range(1, 8);  // 1 in ready_odds per op
    const uint64_t suspend_odds = rng.Range(2, 16);
    for (int op = 0; op < 1500; ++op) {
      for (uint32_t c = 0; c < n; ++c) {
        if (!fast.IsReady(c) && rng.Below(ready_odds) == 0) {
          fast.Enqueue(c, op);
          ref.Enqueue(c, op);
        }
        suspended[c] = rng.Below(suspend_odds) == 0;
      }
      uint64_t a = n, b = n;
      const bool picked = fast.PickNext(suspended, &a);
      ASSERT_EQ(picked, ref.PickNext(suspended, &b)) << "trial " << trial;
      if (picked) {
        ASSERT_EQ(a, b) << "trial " << trial << " op " << op;
        ++picks;
        int64_t cost = rng.Range(0, 2 * quantum);
        if (rng.Below(4) == 0) {
          cost = rng.Below(2) == 0 ? rng.Range(1, 300) * quantum
                                   : rng.Range(1, 300 * quantum);
        }
        fast.NoteServiced(a, cost);
        ref.NoteServiced(b, cost);
      }
      for (uint32_t c = 0; c < n; ++c) {
        ASSERT_EQ(fast.deficit(c), ref.deficit(c))
            << "trial " << trial << " op " << op << " client " << c;
      }
    }
  }
  EXPECT_GT(picks, 100'000u);
}

// 64 backlogged clients all 100 quanta in debt: the pick is 99 idle passes
// plus one that serves client 0, and every deficit lands where the ring
// walk leaves it.
TEST(DrrSchedulerTest, DeepDebtResolvesLikeTheRingWalk) {
  constexpr uint32_t kClients = 64;
  constexpr int64_t kQuantum = 1000;
  DrrScheduler fast(kClients, kQuantum);
  RingWalkDrr ref(kClients, kQuantum);
  const std::vector<uint8_t> none(kClients, 0);
  for (uint32_t c = 0; c < kClients; ++c) {
    fast.Enqueue(c, 0);
    ref.Enqueue(c, 0);
  }
  // One round at deficit 0 serves everybody once, 100 quanta each.
  for (uint32_t c = 0; c < kClients; ++c) {
    uint64_t a = kClients, b = kClients;
    ASSERT_TRUE(fast.PickNext(none, &a));
    ASSERT_TRUE(ref.PickNext(none, &b));
    ASSERT_EQ(a, c);
    ASSERT_EQ(b, c);
    fast.NoteServiced(a, 100 * kQuantum);
    ref.NoteServiced(b, 100 * kQuantum);
    fast.Enqueue(a, 1);
    ref.Enqueue(b, 1);
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(fast.deficit(c), -100 * kQuantum);
  }
  uint64_t a = kClients, b = kClients;
  ASSERT_TRUE(fast.PickNext(none, &a));
  ASSERT_TRUE(ref.PickNext(none, &b));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(fast.deficit(0), 0);
  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(fast.deficit(c), ref.deficit(c)) << "client " << c;
  }
  EXPECT_EQ(fast.deficit(1), -kQuantum);
}

TEST(SchedulerKindTest, ParseRoundTrips) {
  SchedulerKind k;
  EXPECT_TRUE(ParseSchedulerKind("fifo", &k));
  EXPECT_EQ(k, SchedulerKind::kFifo);
  EXPECT_TRUE(ParseSchedulerKind("drr", &k));
  EXPECT_EQ(k, SchedulerKind::kDrr);
  EXPECT_FALSE(ParseSchedulerKind("lottery", &k));
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kFifo), "fifo");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kDrr), "drr");
}

// --- MtDriver -------------------------------------------------------------

// FNV-1a over every allocated chunk of the simulated platter.
uint64_t DiskImageHash(sim::SimEnv* env) {
  uint64_t h = 1469598103934665603ull;
  env->disk().ForEachChunk(
      [&h](uint64_t chunk_index, std::span<const uint8_t> data) {
        h ^= chunk_index;
        h *= 1099511628211ull;
        for (uint8_t b : data) {
          h ^= b;
          h *= 1099511628211ull;
        }
      });
  return h;
}

sim::SimConfig MtConfig() {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.metadata = fs::MetadataPolicy::kDelayed;
  config.deterministic_mtime = true;
  config.syncer = true;
  config.syncer_interval = SimTime::Millis(50);
  config.syncer_max_age = SimTime::Millis(50);
  return config;
}

struct MtRunResult {
  uint64_t disk_hash = 0;
  std::string snapshot_json;
  MtStats stats;
};

MtRunResult RunMt(sim::FsKind kind, const sim::SimConfig& config,
                  const MtParams& params) {
  MtRunResult r;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  if (!env.ok()) return r;
  MtDriver driver(env->get(), params);
  const Status s = driver.Run();
  EXPECT_TRUE(s.ok()) << s.ToString();
  stats::MetricsSnapshot snap = stats::Snapshot(**env);
  snap.mt = driver.TakeStats();
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  r.disk_hash = DiskImageHash(env->get());
  r.snapshot_json = snap.ToJsonString();
  r.stats = std::move(snap.mt);
  return r;
}

// Satellite: same seed + same client count => byte-identical disk image and
// identical metrics snapshot across two runs (the mt extension of the
// existing FNV-1a disk-hash determinism test).
TEST(MtDriverTest, SameSeedSameClientCountIsDeterministic) {
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    MtParams params;
    params.clients = 8;
    params.ops_per_client = 40;
    params.seed = 1234;
    const MtRunResult a = RunMt(kind, MtConfig(), params);
    const MtRunResult b = RunMt(kind, MtConfig(), params);
    EXPECT_EQ(a.disk_hash, b.disk_hash) << sim::FsKindName(kind);
    EXPECT_EQ(a.snapshot_json, b.snapshot_json) << sim::FsKindName(kind);
  }
}

// Satellite: with a single client FIFO and DRR must be indistinguishable —
// identical op order, identical image, identical latency accounting (the
// no-op overhead check for the scheduler plumbing).
TEST(MtDriverTest, FifoAndDrrIdenticalForSingleClient) {
  MtParams params;
  params.clients = 1;
  params.ops_per_client = 60;
  params.seed = 7;
  params.scheduler = SchedulerKind::kFifo;
  const MtRunResult fifo = RunMt(sim::FsKind::kCffs, MtConfig(), params);
  params.scheduler = SchedulerKind::kDrr;
  const MtRunResult drr = RunMt(sim::FsKind::kCffs, MtConfig(), params);
  EXPECT_EQ(fifo.disk_hash, drr.disk_hash);
  EXPECT_EQ(fifo.stats.ops_serviced, drr.stats.ops_serviced);
  EXPECT_EQ(fifo.stats.service_ns, drr.stats.service_ns);
  EXPECT_EQ(fifo.stats.queue_wait_ns, drr.stats.queue_wait_ns);
  EXPECT_EQ(fifo.stats.latency.count(), drr.stats.latency.count());
  EXPECT_EQ(fifo.stats.latency.max().nanos(), drr.stats.latency.max().nanos());
}

// Backpressure parks only offenders, the run still completes, and the
// deferred throttle flush is tagged with the client that crossed the
// watermark (the satellite fix: no more charging whoever was in flight).
TEST(MtDriverTest, BackpressureSuspendsAndTagsTheCrosser) {
  sim::SimConfig config = MtConfig();
  // Room to dirty freely (no eviction writeback muddying the dirty count)
  // but a low watermark so the throttle actually trips.
  config.cache_blocks = 256;
  config.dirty_high_watermark = 0.25;
  config.syncer_interval = SimTime::Seconds(1000);  // throttle only
  config.syncer_max_age = SimTime::Seconds(1000);
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  MtParams params;
  params.clients = 8;
  params.ops_per_client = 48;
  params.create_pct = 70;  // mutation-heavy: everyone pushes dirty data
  params.read_pct = 20;
  MtDriver driver(env->get(), params);
  ASSERT_TRUE(driver.Run().ok());
  const MtStats& stats = driver.stats();
  EXPECT_GT(stats.suspensions, 0u);
  EXPECT_GT(stats.resumes, 0u);
  const stats::MetricsSnapshot snap = stats::Snapshot(**env);
  EXPECT_GT(snap.syncer.throttle_flushes, 0u);
  // The tagged payer is a real client, not the neutral id 0 fallback of the
  // single-tenant path... unless client 0 genuinely crossed first, which
  // the per-client suspension counters can confirm either way.
  const uint64_t payer = (*env)->syncer()->last_throttle_client();
  ASSERT_LT(payer, static_cast<uint64_t>(params.clients));
  EXPECT_GT(stats.per_client[payer].suspensions, 0u);
  // Parked clients kept their queue position: every op still ran.
  EXPECT_EQ(stats.ops_serviced,
            static_cast<uint64_t>(params.clients) * params.ops_per_client);
}

// Out-of-range params fail the run instead of being rewritten into a
// different one (a 40/40/21 mix used to run as 40/40/0).
TEST(MtDriverTest, OutOfRangeParamsAreRejected) {
  MtParams no_clients;
  no_clients.clients = 0;
  MtParams no_dirs;
  no_dirs.dirs_per_client = 0;
  MtParams over_full;
  over_full.dirs_per_client = 2;
  over_full.rename_pct = 21;  // 40 + 40 + 21 > 100
  MtParams rename_one_dir;
  rename_one_dir.rename_pct = 10;
  for (const MtParams& params :
       {no_clients, no_dirs, over_full, rename_one_dir}) {
    auto env = sim::SimEnv::Create(sim::FsKind::kCffs, MtConfig());
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    MtDriver driver(env->get(), params);
    EXPECT_EQ(driver.Run().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(driver.stats().ops_serviced, 0u);
  }
}

// Renames between a client's directories land in their own slot, not in
// the antagonist's write slot, and the op kinds still sum to the ops.
TEST(MtDriverTest, RenamesHaveTheirOwnSlot) {
  MtParams params;
  params.clients = 4;
  params.ops_per_client = 40;
  params.dirs_per_client = 2;
  params.rename_pct = 20;  // 40/40/20: the whole budget is allowed
  const MtRunResult r = RunMt(sim::FsKind::kCffs, MtConfig(), params);
  uint64_t renames = 0;
  for (const MtClientStats& c : r.stats.per_client) {
    renames += c.renames;
    EXPECT_EQ(c.writes, 0u);
  }
  EXPECT_EQ(r.stats.ops_serviced, 4u * 40u);
  EXPECT_GT(renames, 0u);
  EXPECT_EQ(r.stats.rename_latency.count(), renames);
  EXPECT_EQ(r.stats.write_latency.count(), 0u);
}

// All cross-layer invariants (including the new per-client span and mt
// blocks) hold on a 64-client mixed run, and the fairness index is sane.
TEST(MtDriverTest, InvariantsHoldAtSixtyFourClients) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, MtConfig());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  MtParams params;
  params.clients = 64;
  params.ops_per_client = 12;
  MtDriver driver(env->get(), params);
  ASSERT_TRUE(driver.Run().ok());
  stats::MetricsSnapshot snap = stats::Snapshot(**env);
  snap.mt = driver.TakeStats();
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(snap.mt.ops_serviced, 64u * 12u);
  const double jain = snap.mt.JainFairnessIndex();
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0 + 1e-9);
  // Per-client span attribution matched the driver's client count.
  EXPECT_FALSE(snap.spans.per_client.empty());
}

// A multi-tenant trace is still a well-ordered trace: interleaving N
// clients through one service loop must not reorder any client's metadata
// commits (the write-ordering analyzer sees one totally-ordered stream).
TEST(MtDriverTest, MultiTenantTracePassesOrderingChecker) {
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    auto env = sim::SimEnv::Create(kind, MtConfig());
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    (*env)->EnableTrace();
    MtParams params;
    params.clients = 16;
    params.ops_per_client = 16;
    MtDriver driver(env->get(), params);
    ASSERT_TRUE(driver.Run().ok());
    const auto report = check::OrderingChecker::CheckTrace(*(*env)->trace());
    EXPECT_TRUE(report.clean()) << sim::FsKindName(kind) << ": "
                                << report.ToJson();
  }
}

// The antagonist runs bulk overwrites while small-file clients churn; DRR
// keeps serving the small clients (share-fair), and the antagonist's writes
// land in the write histogram, not the create/read/delete ones.
TEST(MtDriverTest, AntagonistIsolatedToWriteHistogram) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, MtConfig());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  MtParams params;
  params.clients = 9;
  params.ops_per_client = 16;
  params.antagonist = true;
  params.antagonist_write_kb = 64;
  params.antagonist_file_kb = 256;
  MtDriver driver(env->get(), params);
  ASSERT_TRUE(driver.Run().ok());
  stats::MetricsSnapshot snap = stats::Snapshot(**env);
  snap.mt = driver.TakeStats();
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(snap.mt.per_client[0].writes, params.ops_per_client);
  EXPECT_EQ(snap.mt.per_client[0].creates, 0u);
  EXPECT_EQ(snap.mt.write_latency.count(), params.ops_per_client);
  for (uint32_t c = 1; c < params.clients; ++c) {
    EXPECT_EQ(snap.mt.per_client[c].writes, 0u) << c;
    EXPECT_EQ(snap.mt.per_client[c].ops, params.ops_per_client) << c;
  }
}

}  // namespace
}  // namespace cffs::mt
