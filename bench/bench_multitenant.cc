// Multi-tenant tail-latency benchmark for the op scheduler (src/mt).
//
// Not a figure from the paper, but the tail-latency counterpart to its
// throughput story: embedded inodes and explicit grouping cut the disk
// work per small-file op, and under N concurrent clients that saved work
// compounds into shorter submission queues — so C-FFS must beat FFS not
// just on mean throughput but at the p99 a tenant actually observes.
//
// Two experiments:
//
//   1. Client-count sweep (1 -> 16 -> 256 -> 1024), both file systems x
//      both metadata policies, every client running the mixed
//      create/read/delete small-file stream under DRR. The gate: C-FFS p99
//      CREATE latency (queue wait + service) must beat FFS at the top of
//      the sweep under delayed metadata.
//
//   2. Antagonist phase: one tenant issues large sequential overwrites
//      while 32 small-file tenants churn, with a cache small enough that
//      the dirty-watermark throttle fires. FIFO with whole-loop throttling
//      (the single-tenant legacy behavior) is compared against DRR with
//      per-client backpressure, each against its own antagonist-free
//      baseline. The gate: fair queuing must cap the antagonist-induced
//      small-client p99 inflation (with/without ratio) versus FIFO's.
//
// Every run must keep all MetricsSnapshot invariants (including the new
// per-client phase-sum and mt blocks). The JSON report carries one row per
// (config, client count) plus the antagonist comparison and per-config
// span attribution.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/report.h"
#include "src/mt/driver.h"

using namespace cffs;

namespace {

struct SweepConfig {
  std::string name;
  sim::FsKind kind;
  bool delayed = false;  // delayed metadata + background syncer
};

sim::SimConfig BaseConfig(bool delayed) {
  sim::SimConfig config;
  config.deterministic_mtime = true;
  // Server-sized file cache (32 MB): a 1024-tenant working set at the
  // default 8 MB would make the sweep measure cache thrash, not queuing.
  config.cache_blocks = 8192;
  if (delayed) {
    config.metadata = fs::MetadataPolicy::kDelayed;
    config.syncer = true;
    config.syncer_interval = SimTime::Millis(100);
    config.syncer_max_age = SimTime::Millis(100);
  }
  return config;
}

// Runs `params` under MtDriver on a fresh machine, then hands the machine
// to bench::AddMachine under `label` when `record`, else to bench::Check.
stats::MetricsSnapshot RunOne(bench::Report* report, const std::string& label,
                              bool record, sim::FsKind kind,
                              const sim::SimConfig& config,
                              const mt::MtParams& params) {
  std::unique_ptr<sim::SimEnv> env = bench::NewMachine(label, kind, config);
  mt::MtDriver driver(env.get(), params);
  if (Status s = driver.Run(); !s.ok()) bench::Die(label + ": run", s);
  mt::MtStats mt = driver.TakeStats();
  if (record) return bench::AddMachine(report, label, env.get(), std::move(mt));
  return bench::Check(report, label, env.get(), std::move(mt));
}

obs::Json SweepRow(const std::string& config, uint32_t clients,
                   const mt::MtStats& mt) {
  obs::Json row = obs::Json::Object();
  row.Set("config", config);
  row.Set("clients", clients);
  row.Set("scheduler", mt.scheduler);
  row.Set("ops", mt.ops_serviced);
  row.Set("p50_ns", mt.latency.p50().nanos());
  row.Set("p99_ns", mt.latency.p99().nanos());
  row.Set("p999_ns", mt.latency.p999().nanos());
  row.Set("create_p99_ns", mt.create_latency.p99().nanos());
  row.Set("queue_wait_p99_ns", mt.queue_wait.p99().nanos());
  row.Set("jain_fairness", mt.JainFairnessIndex());
  row.Set("suspensions", mt.suspensions);
  return row;
}

// Full latency distribution of every client EXCEPT the antagonist.
LatencyHistogram SmallClientLatency(const mt::MtStats& mt) {
  LatencyHistogram merged;
  for (const mt::MtClientStats& c : mt.per_client) {
    if (c.client_id == 0) continue;  // the antagonist
    merged.Merge(c.latency);
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::ParseArgs(argc, argv).quick;
  // The sweep always reaches 1024 clients (that is the point); quick mode
  // trims how many ops each client contributes.
  const uint32_t kCounts[] = {1, 16, 256, 1024};
  const uint64_t total_ops = quick ? 2048 : 8192;

  bench::Report report("multitenant");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("total_ops_per_run", total_ops);
    p.Set("scheduler", "drr");
    p.Set("syncer_interval_ms", 100);
    report.Set("params", std::move(p));
  }

  const SweepConfig configs[] = {
      {"ffs+sync", sim::FsKind::kFfs, false},
      {"ffs+delayed", sim::FsKind::kFfs, true},
      {"c-ffs+sync", sim::FsKind::kCffs, false},
      {"c-ffs+delayed", sim::FsKind::kCffs, true},
  };

  std::printf("%-14s %8s %8s %10s %10s %12s %6s\n", "config", "clients",
              "ops", "p50", "p99", "create_p99", "jain");
  // create p99 at the top of the sweep, per config (the gate inputs).
  double top_create_p99[4] = {};
  for (int ci = 0; ci < 4; ++ci) {
    const SweepConfig& sc = configs[ci];
    for (uint32_t clients : kCounts) {
      mt::MtParams params;
      params.clients = clients;
      params.ops_per_client =
          std::max<uint64_t>(4, total_ops / clients);
      // Every point is checked; the top of the sweep is also recorded.
      const bool top = clients == kCounts[3];
      const stats::MetricsSnapshot snap = RunOne(
          &report, top ? sc.name : sc.name + "/" + std::to_string(clients),
          top, sc.kind, BaseConfig(sc.delayed), params);
      const mt::MtStats& mt = snap.mt;
      std::printf("%-14s %8u %8llu %9.2fms %9.2fms %11.2fms %6.3f\n",
                  sc.name.c_str(), clients,
                  static_cast<unsigned long long>(mt.ops_serviced),
                  mt.latency.p50().seconds() * 1e3,
                  mt.latency.p99().seconds() * 1e3,
                  mt.create_latency.p99().seconds() * 1e3,
                  mt.JainFairnessIndex());
      report.AddRow(SweepRow(sc.name, clients, mt));
      if (top) {
        top_create_p99[ci] =
            static_cast<double>(mt.create_latency.p99().nanos());
      }
    }
  }

  // --- Antagonist phase ---------------------------------------------------
  // 33 tenants on delayed C-FFS with a cache small enough that bulk dirty
  // data trips the throttle. A 2x2: each scheduler runs once with client 0
  // as a bulk sequential writer and once with client 0 as a 33rd ordinary
  // small-file tenant. The gated quantity is each scheduler's
  // antagonist-induced p99 INFLATION over clients 1..32 — with/without
  // ratios on steady-state ops only (warmup_ops drops each client's first
  // rounds, which after ColdCache are a shared miss storm).
  auto antagonist_params = [quick](mt::SchedulerKind sched, bool backpressure,
                                   bool antagonist) {
    mt::MtParams params;
    params.clients = 33;
    params.ops_per_client = quick ? 128 : 256;
    params.warmup_ops = 8;
    params.scheduler = sched;
    params.backpressure = backpressure;
    params.antagonist = antagonist;
    params.antagonist_write_kb = 256;
    params.antagonist_file_kb = 2048;
    return params;
  };
  sim::SimConfig anta_config = BaseConfig(/*delayed=*/true);
  anta_config.cache_blocks = 512;
  anta_config.dirty_high_watermark = 0.25;
  anta_config.syncer_interval = SimTime::Seconds(1000);  // throttle-driven
  anta_config.syncer_max_age = SimTime::Seconds(1000);

  struct AntaRun {
    const char* name;
    mt::SchedulerKind sched;
    bool backpressure;
    bool antagonist;
  };
  const AntaRun runs[] = {
      {"antagonist/fifo-base", mt::SchedulerKind::kFifo, false, false},
      {"antagonist/fifo", mt::SchedulerKind::kFifo, false, true},
      {"antagonist/drr-base", mt::SchedulerKind::kDrr, true, false},
      {"antagonist/drr", mt::SchedulerKind::kDrr, true, true},
  };
  double small_p99[4] = {};
  obs::Json a = obs::Json::Object();
  for (int i = 0; i < 4; ++i) {
    const stats::MetricsSnapshot snap = RunOne(
        &report, runs[i].name, /*record=*/true, sim::FsKind::kCffs,
        anta_config,
        antagonist_params(runs[i].sched, runs[i].backpressure,
                          runs[i].antagonist));
    const LatencyHistogram small = SmallClientLatency(snap.mt);
    small_p99[i] = static_cast<double>(small.p99().nanos());
    std::printf("%-24s small p99 %9.2fms  p90 %9.2fms  mean %8.2fms  "
                "jain %.3f  flushes %llu\n",
                runs[i].name, small_p99[i] / 1e6,
                small.Percentile(0.90).seconds() * 1e3,
                small.mean().seconds() * 1e3, snap.mt.JainFairnessIndex(),
                static_cast<unsigned long long>(snap.syncer.throttle_flushes));
    const std::string tag(runs[i].name + std::strlen("antagonist/"));
    a.Set(tag + "_small_p99_ns", small_p99[i]);
    a.Set(tag + "_small_p90_ns", small.Percentile(0.90).nanos());
    a.Set(tag + "_small_mean_ns", small.mean().nanos());
    a.Set(tag + "_jain", snap.mt.JainFairnessIndex());
    a.Set(tag + "_throttle_flushes", snap.syncer.throttle_flushes);
  }
  const double fifo_inflation =
      small_p99[0] > 0 ? small_p99[1] / small_p99[0] : 0;
  const double drr_inflation =
      small_p99[2] > 0 ? small_p99[3] / small_p99[2] : 0;
  std::printf("antagonist-induced small-client p99 inflation: "
              "fifo %.2fx, drr %.2fx\n", fifo_inflation, drr_inflation);
  a.Set("fifo_inflation", fifo_inflation);
  a.Set("drr_inflation", drr_inflation);
  report.Set("antagonist", std::move(a));

  {
    obs::Json g = obs::Json::Object();
    g.Set("ffs_delayed_create_p99_ns", top_create_p99[1]);
    g.Set("cffs_delayed_create_p99_ns", top_create_p99[3]);
    report.Set("gates", std::move(g));
  }
  report.Write();

  // Gate 1: at 1024 clients under delayed metadata, C-FFS p99 create
  // latency must beat FFS — the paper's disk savings must survive queuing.
  if (top_create_p99[3] >= top_create_p99[1]) {
    std::fprintf(stderr,
                 "FAIL: c-ffs create p99 %.2fms >= ffs %.2fms at 1024 "
                 "clients (delayed)\n",
                 top_create_p99[3] / 1e6, top_create_p99[1] / 1e6);
    return 1;
  }
  // Gate 2: DRR + per-client backpressure must cap the antagonist-induced
  // small-client p99 inflation below the FIFO + whole-loop-throttle
  // baseline's.
  if (drr_inflation >= fifo_inflation) {
    std::fprintf(stderr,
                 "FAIL: drr antagonist p99 inflation %.2fx >= fifo %.2fx\n",
                 drr_inflation, fifo_inflation);
    return 1;
  }
  return 0;
}
