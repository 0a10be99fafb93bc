// cffs_prof: run a small-file workload and print where the time went.
//
//   cffs_prof [KEY=VALUE ...] [--files=N] [--dirs=N] [--bytes=N] [--top=N]
//             [--json=PATH]
//             [--mt=N] [--mt-ops=N] [--mt-scheduler=fifo|drr]
//             [--mt-backpressure=0|1] [--antagonist] [--per-client[=K]]
//             [--shard-placement=jump|mod] [--per-shard] [--rename-pct=N]
//
// KEY=VALUE tokens describe the simulated machine, in the config-string
// syntax of src/sim/sim_env.h (fs=c-ffs by default; e.g. fs=ffs
// metadata=delayed syncer=1). A report's sim_config string pastes in
// whole. Two reports, both built from the cross-layer span attribution
// (src/obs/span.h), whose phase times sum exactly to each op's
// end-to-end latency:
//
//   1. per-op-type attribution: count, mean/p50/p99/p999 end-to-end
//      latency, and the share of total time spent in each phase
//      (cpu / queue_wait / throttle_stall / seek / rotation / transfer /
//      overhead — or, with device=flash, overhead / channel_wait /
//      transfer / program / erase) plus cache hits avoided per op;
//   2. the top-N slowest individual operations, each with its span
//      segments (phase, offset into the op, duration, LBA for disk
//      phases) — a flame-graph footprint in text form.
//
// --mt=N swaps the workload for the multi-tenant driver (src/mt): N
// clients through the pluggable op scheduler; the --mt-* flags fill its
// mt::MtParams. With it, --per-client[=K] adds a third report: the K worst
// clients by p99 full latency (queue wait + service), each with its exact
// span-attributed throttle-stall share — "which tenant hurts, and is it
// paying its own flush debt or queuing behind someone else's".
//
// shards=M swaps in the scale-out namespace (src/shard): the mt client
// population fans out across M independent shards (M disks, M syncers)
// through the group-aware router, with --rename-pct of postmark ops renaming
// files between directories (cross-shard when they hash apart). --per-shard
// adds the shard axis: one row per shard with ops serviced, inbound
// cross-shard renames, p99 full latency, the DOMINANT PHASE of that shard's
// span attribution ("which shard hurts, and in what phase"), and the
// high-water dirty/queue-depth gauges from that shard's sampler series.
//
// --json dumps the same PhaseBreakdown as machine-readable JSON. A bad
// argument prints a message and exits 2.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/mt/driver.h"
#include "src/shard/driver.h"
#include "src/stats/collect.h"
#include "src/util/cli.h"
#include "src/workload/smallfile.h"

using namespace cffs;

namespace {

constexpr char kUsage[] =
    "[KEY=VALUE ...] [--files=N] [--dirs=N] [--bytes=N] [--top=N]\n"
    "    [--json=PATH] [--mt=N] [--mt-ops=N] [--mt-scheduler=fifo|drr]\n"
    "    [--mt-backpressure=0|1] [--antagonist] [--per-client[=K]]\n"
    "    [--shard-placement=jump|mod] [--per-shard] [--rename-pct=N]\n"
    "KEY=VALUE: the config-string keys of src/sim/sim_env.h";

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void PrintAttribution(const obs::PhaseBreakdown& spans) {
  std::printf(
      "per-op-type attribution (%llu ops; phase times sum exactly to "
      "end-to-end):\n",
      static_cast<unsigned long long>(spans.ops_finished));
  std::printf(
      "  %-8s %8s %9s %9s %9s %9s  | share of total time (hits/op)\n", "op",
      "count", "mean_ms", "p50_ms", "p99_ms", "p999_ms");
  for (int i = 0; i < obs::kTrackedOps; ++i) {
    const obs::OpTypeBreakdown& b = spans.per_op[i];
    if (b.count() == 0) continue;
    const double mean_ms =
        Ms(b.e2e_total_ns) / static_cast<double>(b.count());
    std::printf("  %-8s %8llu %9.3f %9.3f %9.3f %9.3f  |",
                obs::FsOpName(obs::TrackedOpAt(i)),
                static_cast<unsigned long long>(b.count()), mean_ms,
                Ms(b.e2e.p50().nanos()), Ms(b.e2e.p99().nanos()),
                Ms(b.e2e.p999().nanos()));
    const int64_t total = b.totals.TotalNs();
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      const obs::Phase phase = static_cast<obs::Phase>(p);
      if (phase == obs::Phase::kCacheHit) continue;  // counts, not time
      const int64_t ns = b.totals.ns[p];
      if (ns == 0) continue;
      std::printf(" %s %.1f%%", obs::PhaseName(phase),
                  total > 0 ? 100.0 * static_cast<double>(ns) /
                                  static_cast<double>(total)
                            : 0.0);
    }
    const uint64_t hits =
        b.totals.count[static_cast<int>(obs::Phase::kCacheHit)];
    std::printf(" (%.1f hits/op)\n",
                static_cast<double>(hits) / static_cast<double>(b.count()));
  }
  const int64_t bg = spans.background.TotalNs();
  if (bg > 0) {
    std::printf("  background (mount/format/idle flush): %.3f ms\n", Ms(bg));
  }
}

void PrintSlowest(const std::vector<obs::OpContext>& slowest) {
  std::printf("\ntop %zu slowest ops (span trees):\n", slowest.size());
  for (const obs::OpContext& op : slowest) {
    std::printf("  #%llu %s  %.3f ms @ t=%.3f ms\n",
                static_cast<unsigned long long>(op.op_id), obs::FsOpName(op.op),
                Ms(op.e2e_ns()), Ms(op.start_ns));
    for (const obs::SpanSegment& seg : op.segments) {
      std::printf("    +%9.3f ms  %-14s %9.3f ms", Ms(seg.start_ns - op.start_ns),
                  obs::PhaseName(seg.phase), Ms(seg.dur_ns));
      if (seg.detail != 0) {
        std::printf("  lba=%llu", static_cast<unsigned long long>(seg.detail));
      }
      std::printf("\n");
    }
    if (op.segments_dropped > 0) {
      std::printf("    ... %u more segments (merged cap)\n",
                  op.segments_dropped);
    }
  }
}

// Top-K clients by p99 full latency. The stall column is the span
// tracker's exact throttle_stall attribution for that client's ops — a
// high-p99 client with ~0 stall is queuing behind other tenants, not
// paying flush debt.
void PrintPerClient(const stats::MetricsSnapshot& snap, size_t k) {
  const mt::MtStats& mt = snap.mt;
  std::vector<const mt::MtClientStats*> order;
  order.reserve(mt.per_client.size());
  for (const mt::MtClientStats& c : mt.per_client) {
    if (c.ops > 0) order.push_back(&c);
  }
  std::sort(order.begin(), order.end(),
            [](const mt::MtClientStats* a, const mt::MtClientStats* b) {
              const int64_t pa = a->latency.p99().nanos();
              const int64_t pb = b->latency.p99().nanos();
              if (pa != pb) return pa > pb;
              return a->client_id < b->client_id;
            });
  if (order.size() > k) order.resize(k);

  std::printf("\nworst %zu of %u clients by p99 full latency (%s, jain %.3f):\n",
              order.size(), mt.clients, mt.scheduler.c_str(),
              mt.JainFairnessIndex());
  std::printf("  %-7s %6s %9s %9s %10s %10s %9s %5s\n", "client", "ops",
              "p99_ms", "mean_ms", "qwait_ms", "svc_ms", "stall_ms", "susp");
  constexpr int kStall = static_cast<int>(obs::Phase::kThrottleStall);
  for (const mt::MtClientStats* c : order) {
    double stall_ms = 0;
    if (c->client_id < snap.spans.per_client.size()) {
      stall_ms = Ms(snap.spans.per_client[c->client_id].totals.ns[kStall]);
    }
    std::printf("  t%-6llu %6llu %9.3f %9.3f %10.3f %10.3f %9.3f %5llu\n",
                static_cast<unsigned long long>(c->client_id),
                static_cast<unsigned long long>(c->ops),
                Ms(c->latency.p99().nanos()), Ms(c->latency.mean().nanos()),
                Ms(c->queue_wait_ns), Ms(c->service_ns), stall_ms,
                static_cast<unsigned long long>(c->suspensions));
  }
}

// One row per shard: work absorbed, inbound cross-shard renames, full
// latency, the dominant phase of that shard's span attribution, and the
// high-water dirty/queue-depth gauges from the shard's sampler series.
void PrintPerShard(shard::ShardRouter* router,
                   const shard::ShardDriverStats& st) {
  std::printf("\nper-shard breakdown (%u shards, placement %s):\n", st.shards,
              PlacementPolicyName(router->placement()));
  std::printf("  %-5s %7s %7s %9s %9s %10s %10s  %-14s %8s %8s\n", "shard",
              "ops", "xren", "p99_ms", "mean_ms", "qwait_ms", "svc_ms",
              "dominant", "dirty_hw", "qd_hw");
  for (const shard::ShardOpStats& s : st.per_shard) {
    sim::SimEnv* env = router->env(s.shard_id);
    stats::MetricsSnapshot snap = stats::Snapshot(*env);
    // Dominant phase: largest share of the shard's span-attributed time.
    int64_t phase_ns[obs::kPhaseCount] = {};
    for (const obs::OpTypeBreakdown& b : snap.spans.per_op) {
      for (int p = 0; p < obs::kPhaseCount; ++p) phase_ns[p] += b.totals.ns[p];
    }
    int dominant = 0;
    for (int p = 1; p < obs::kPhaseCount; ++p) {
      if (static_cast<obs::Phase>(p) == obs::Phase::kCacheHit) continue;
      if (phase_ns[p] > phase_ns[dominant]) dominant = p;
    }
    uint64_t dirty_hw = 0;
    uint64_t qd_hw = 0;
    if (env->sampler() != nullptr) {
      for (const obs::TimeSample& ts : env->sampler()->samples()) {
        dirty_hw = std::max(dirty_hw, ts.dirty_blocks);
        qd_hw = std::max(qd_hw, ts.queue_depth);
      }
    }
    std::printf("  %-5u %7llu %7llu %9.3f %9.3f %10.3f %10.3f  %-14s %8llu "
                "%8llu\n",
                s.shard_id, static_cast<unsigned long long>(s.ops),
                static_cast<unsigned long long>(s.renames_in),
                Ms(s.latency.p99().nanos()), Ms(s.latency.mean().nanos()),
                Ms(s.queue_wait_ns), Ms(s.service_ns),
                s.ops > 0 ? obs::PhaseName(static_cast<obs::Phase>(dominant))
                          : "-",
                static_cast<unsigned long long>(dirty_hw),
                static_cast<unsigned long long>(qd_hw));
  }
}

int RunSharded(sim::FsKind kind, const sim::SimConfig& config,
               shard::PlacementPolicy placement, const mt::MtParams& params,
               bool per_shard) {
  auto router_or = shard::ShardRouter::Create(kind, config, placement);
  if (!router_or.ok()) return Fail("router", router_or.status());
  shard::ShardRouter* router = router_or->get();
  shard::ShardDriver driver(router, params);
  if (Status s = driver.Run(); !s.ok()) return Fail("run", s);
  const shard::ShardDriverStats& st = driver.stats();
  std::printf("%s x %u shards: %u clients x %llu ops, %llu cross-shard "
              "renames, %.3f simulated seconds\n",
              sim::FsKindName(kind).c_str(), st.shards, params.clients,
              static_cast<unsigned long long>(params.ops_per_client),
              static_cast<unsigned long long>(st.renames_cross),
              static_cast<double>(st.elapsed_ns) / 1e9);
  if (per_shard) PrintPerShard(router, st);

  uint64_t shard_ops = 0;
  for (const shard::ShardOpStats& s : st.per_shard) shard_ops += s.ops;
  if (shard_ops != st.mt.ops_serviced) {
    std::fprintf(stderr,
                 "invariant violated: per-shard ops %llu != serviced %llu\n",
                 static_cast<unsigned long long>(shard_ops),
                 static_cast<unsigned long long>(st.mt.ops_serviced));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sim::FsKind kind = sim::FsKind::kCffs;
  sim::SimConfig config;
  workload::SmallFileParams params;
  params.num_files = 1000;
  params.num_dirs = 10;
  size_t top_n = 10;
  std::string json_out, scheduler_name, placement_name;
  uint32_t mt_clients = 0;
  uint64_t mt_ops = 64;
  bool backpressure = true;
  size_t per_client_k = 0;
  uint32_t rename_pct = 0;

  Args args(argc, argv);
  args.Uint("--files", 1, 1u << 24, &params.num_files);
  args.Uint("--dirs", 1, 1u << 20, &params.num_dirs);
  args.Uint("--bytes", 0, 1u << 26, &params.file_bytes);
  args.Uint("--top", 1, 1u << 20, &top_n);
  args.String("--json", &json_out);
  args.Uint("--mt", 1, 1u << 16, &mt_clients);
  args.Uint("--mt-ops", 1, 1u << 24, &mt_ops);
  args.String("--mt-scheduler", &scheduler_name);
  args.Uint("--mt-backpressure", 0, 1, &backpressure);
  const bool antagonist = args.Switch("--antagonist");
  args.Uint("--per-client", 1, 1u << 16, &per_client_k);
  const bool per_client = args.Switch("--per-client") || per_client_k > 0;
  if (per_client_k == 0) per_client_k = 10;
  args.String("--shard-placement", &placement_name);
  const bool per_shard = args.Switch("--per-shard");
  args.Uint("--rename-pct", 0, 100, &rename_pct);
  std::string machine;
  for (const std::string& w : args.Words()) machine += w + " ";
  mt::SchedulerKind scheduler = mt::SchedulerKind::kDrr;
  shard::PlacementPolicy placement = shard::PlacementPolicy::kJump;
  const bool mt_mode = mt_clients > 0;
  auto validate = [&]() -> Status {
    RETURN_IF_ERROR(args.Finish());
    RETURN_IF_ERROR(sim::ParseConfig(machine, &kind, &config));
    const bool sharded = config.shards > 0;
    if (!scheduler_name.empty() &&
        !mt::ParseSchedulerKind(scheduler_name, &scheduler)) {
      return InvalidArgument("--mt-scheduler: unknown name \"" +
                             scheduler_name + "\" (fifo | drr)");
    }
    if (!placement_name.empty() &&
        !shard::ParsePlacementPolicy(placement_name, &placement)) {
      return InvalidArgument("--shard-placement: unknown name \"" +
                             placement_name + "\" (jump | mod)");
    }
    if ((per_client || antagonist) && (!mt_mode || sharded)) {
      return InvalidArgument(
          "--per-client and --antagonist need --mt=N and no shards=M");
    }
    if ((per_shard || rename_pct > 0 || !placement_name.empty()) &&
        !sharded) {
      return InvalidArgument(
          "--per-shard, --rename-pct and --shard-placement need shards=M");
    }
    if (sharded && !json_out.empty()) {
      return InvalidArgument("--json is not available with shards=M");
    }
    return OkStatus();
  };
  if (Status s = validate(); !s.ok()) return UsageError(argv[0], s, kUsage);

  // The driver's flags over `base` (its defaults, or the sharded ones).
  auto driver_params = [&](mt::MtParams base) {
    if (mt_mode) base.clients = mt_clients;
    base.ops_per_client = mt_ops;
    base.scheduler = scheduler;
    base.backpressure = backpressure;
    return base;
  };
  // Shard mode routes every op through M independent SimEnvs, so the global
  // span attribution / slowest-op / json reports (all single-env views) are
  // replaced by the per-shard table.
  if (config.shards > 0) {
    mt::MtParams p = driver_params(shard::ShardDriverParams());
    p.rename_pct = rename_pct;
    return RunSharded(kind, config, placement, p, per_shard);
  }

  auto env_or = sim::SimEnv::Create(kind, config);
  if (!env_or.ok()) return Fail("env", env_or.status());
  sim::SimEnv* env = env_or->get();
  env->spans()->set_top_n(top_n);

  stats::MetricsSnapshot snap;
  if (mt_mode) {
    mt::MtParams mt_params = driver_params({});
    mt_params.antagonist = antagonist;
    mt::MtDriver driver(env, mt_params);
    if (Status st = driver.Run(); !st.ok()) return Fail("run", st);
    snap = stats::Snapshot(*env);
    snap.mt = driver.TakeStats();
    std::printf("%s: %u clients x %llu ops (%s%s), %.3f simulated seconds\n\n",
                sim::FsKindName(kind).c_str(), mt_params.clients,
                static_cast<unsigned long long>(mt_params.ops_per_client),
                snap.mt.scheduler.c_str(),
                antagonist ? ", antagonist" : "", snap.sim_seconds);
  } else {
    auto result = workload::RunSmallFile(env, params);
    if (!result.ok()) return Fail("run", result.status());
    snap = stats::Snapshot(*env);
    std::printf("%s: %u files x %u B in %u dirs, %.3f simulated seconds\n\n",
                sim::FsKindName(kind).c_str(), params.num_files,
                params.file_bytes, params.num_dirs, snap.sim_seconds);
  }
  PrintAttribution(snap.spans);
  PrintSlowest(env->spans()->SlowestOps());
  if (per_client) PrintPerClient(snap, per_client_k);

  if (!json_out.empty()) {
    if (Status st = WriteTextFile(json_out, snap.spans.ToJson().Dump(2));
        !st.ok()) {
      return Fail("json", st);
    }
    std::printf("\njson: %s\n", json_out.c_str());
  }

  const auto violations = snap.CheckInvariants();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "invariant violated: %s\n", v.c_str());
  }
  return violations.empty() ? 0 : 1;
}
