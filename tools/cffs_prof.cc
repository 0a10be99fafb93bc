// cffs_prof: run a small-file workload and print where the time went.
//
//   cffs_prof [--fs=KIND] [--files=N] [--dirs=N] [--bytes=N]
//             [--policy=sync|delayed] [--syncer] [--top=N] [--json=PATH]
//             [--device=spinning|flash] [--extents]
//             [--mt=N] [--mt-ops=N] [--mt-scheduler=fifo|drr]
//             [--mt-backpressure=0|1] [--antagonist] [--per-client[=K]]
//             [--shards=M] [--shard-placement=jump|mod] [--per-shard]
//             [--rename-pct=N]
//
// KIND: ffs | conventional | embedded | grouping | cffs (default cffs).
// Two reports, both built from the cross-layer span attribution
// (src/obs/span.h), whose phase times sum exactly to each op's
// end-to-end latency:
//
//   1. per-op-type attribution: count, mean/p50/p99/p999 end-to-end
//      latency, and the share of total time spent in each phase
//      (cpu / queue_wait / throttle_stall / seek / rotation / transfer /
//      overhead — or, with --device=flash, overhead / channel_wait /
//      transfer / program / erase) plus cache hits avoided per op;
//   2. the top-N slowest individual operations, each with its span
//      segments (phase, offset into the op, duration, LBA for disk
//      phases) — a flame-graph footprint in text form.
//
// --mt=N swaps the workload for the multi-tenant driver (src/mt): N
// clients through the pluggable op scheduler, exercising the same
// mt_clients / mt_scheduler / mt_backpressure SimConfig knobs. With it,
// --per-client[=K] adds a third report: the K worst clients by p99 full
// latency (queue wait + service), each with its exact span-attributed
// throttle-stall share — "which tenant hurts, and is it paying its own
// flush debt or queuing behind someone else's".
//
// --shards=M swaps in the scale-out namespace (src/shard): the mt client
// population fans out across M independent shards (M disks, M syncers)
// through the group-aware router, with --rename-pct of postmark ops renaming
// files between directories (cross-shard when they hash apart). --per-shard
// adds the shard axis: one row per shard with ops serviced, inbound
// cross-shard renames, p99 full latency, the DOMINANT PHASE of that shard's
// span attribution ("which shard hurts, and in what phase"), and the
// high-water dirty/queue-depth gauges from that shard's sampler series.
//
// --json dumps the same PhaseBreakdown as machine-readable JSON.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/mt/driver.h"
#include "src/shard/driver.h"
#include "src/stats/collect.h"
#include "src/workload/smallfile.h"

using namespace cffs;

namespace {

bool ParseKind(const char* s, sim::FsKind* out) {
  if (std::strcmp(s, "ffs") == 0) *out = sim::FsKind::kFfs;
  else if (std::strcmp(s, "conventional") == 0) *out = sim::FsKind::kConventional;
  else if (std::strcmp(s, "embedded") == 0) *out = sim::FsKind::kEmbedOnly;
  else if (std::strcmp(s, "grouping") == 0) *out = sim::FsKind::kGroupOnly;
  else if (std::strcmp(s, "cffs") == 0) *out = sim::FsKind::kCffs;
  else return false;
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--fs=ffs|conventional|embedded|grouping|cffs]\n"
               "          [--files=N] [--dirs=N] [--bytes=N]\n"
               "          [--policy=sync|delayed] [--syncer] [--top=N]\n"
               "          [--json=PATH] [--device=spinning|flash] [--extents]\n"
               "          [--mt=N] [--mt-ops=N] [--mt-scheduler=fifo|drr]\n"
               "          [--mt-backpressure=0|1] [--antagonist]\n"
               "          [--per-client[=K]]\n"
               "          [--shards=M] [--shard-placement=jump|mod]\n"
               "          [--per-shard] [--rename-pct=N]\n",
               argv0);
  return 2;
}

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

int RunSharded(sim::FsKind kind, const sim::SimConfig& config, uint64_t mt_ops,
               uint32_t rename_pct, bool per_shard) {
  auto router_or = shard::ShardRouter::Create(kind, config);
  if (!router_or.ok()) {
    std::fprintf(stderr, "router: %s\n",
                 router_or.status().ToString().c_str());
    return 1;
  }
  shard::ShardRouter* router = router_or->get();
  auto params = mt::MtParams::FromConfig(config, shard::ShardDriverParams());
  if (!params.ok()) {
    std::fprintf(stderr, "params: %s\n", params.status().ToString().c_str());
    return 1;
  }
  params->ops_per_client = mt_ops;
  params->rename_pct = rename_pct;
  shard::ShardDriver driver(router, *params);
  if (Status s = driver.Run(); !s.ok()) {
    std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
    return 1;
  }
  const shard::ShardDriverStats& st = driver.stats();
  std::printf("%s x %u shards: %u clients x %llu ops, %llu cross-shard "
              "renames, %.3f simulated seconds\n",
              sim::FsKindName(kind).c_str(), st.shards, params->clients,
              static_cast<unsigned long long>(mt_ops),
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
  workload::SmallFileParams params;
  params.num_files = 1000;
  params.num_dirs = 10;
  sim::SimConfig config;
  size_t top_n = 10;
  std::string json_out;
  uint64_t mt_ops = 64;
  bool antagonist = false;
  bool per_client = false;
  size_t per_client_k = 10;
  bool per_shard = false;
  uint32_t rename_pct = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--fs=", 5) == 0) {
      if (!ParseKind(arg + 5, &kind)) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--files=", 8) == 0) {
      params.num_files = static_cast<uint32_t>(std::atoi(arg + 8));
    } else if (std::strncmp(arg, "--dirs=", 7) == 0) {
      params.num_dirs = static_cast<uint32_t>(std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--bytes=", 8) == 0) {
      params.file_bytes = static_cast<uint32_t>(std::atoi(arg + 8));
    } else if (std::strcmp(arg, "--policy=sync") == 0) {
      config.metadata = fs::MetadataPolicy::kSynchronous;
    } else if (std::strcmp(arg, "--policy=delayed") == 0) {
      config.metadata = fs::MetadataPolicy::kDelayed;
    } else if (std::strcmp(arg, "--syncer") == 0) {
      config.syncer = true;
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      top_n = static_cast<size_t>(std::atoll(arg + 6));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_out = arg + 7;
    } else if (std::strcmp(arg, "--device=spinning") == 0 ||
               std::strcmp(arg, "--device=flash") == 0) {
      config.device = arg + 9;
    } else if (std::strcmp(arg, "--extents") == 0) {
      config.extent_alloc = true;
    } else if (std::strncmp(arg, "--mt=", 5) == 0) {
      config.mt_clients = static_cast<uint32_t>(std::atoi(arg + 5));
      if (config.mt_clients == 0) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--mt-ops=", 9) == 0) {
      mt_ops = static_cast<uint64_t>(std::atoll(arg + 9));
      if (mt_ops == 0) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--mt-scheduler=", 15) == 0) {
      mt::SchedulerKind sk;
      if (!mt::ParseSchedulerKind(arg + 15, &sk)) return Usage(argv[0]);
      config.mt_scheduler = arg + 15;
    } else if (std::strncmp(arg, "--mt-backpressure=", 18) == 0) {
      config.mt_backpressure = std::atoi(arg + 18) != 0;
    } else if (std::strcmp(arg, "--antagonist") == 0) {
      antagonist = true;
    } else if (std::strcmp(arg, "--per-client") == 0) {
      per_client = true;
    } else if (std::strncmp(arg, "--per-client=", 13) == 0) {
      per_client = true;
      per_client_k = static_cast<size_t>(std::atoll(arg + 13));
      if (per_client_k == 0) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      config.shards = static_cast<uint32_t>(std::atoi(arg + 9));
      if (config.shards == 0) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--shard-placement=", 18) == 0) {
      shard::PlacementPolicy pp;
      if (!shard::ParsePlacementPolicy(arg + 18, &pp)) return Usage(argv[0]);
      config.shard_placement = arg + 18;
    } else if (std::strcmp(arg, "--per-shard") == 0) {
      per_shard = true;
    } else if (std::strncmp(arg, "--rename-pct=", 13) == 0) {
      rename_pct = static_cast<uint32_t>(std::atoi(arg + 13));
    } else {
      return Usage(argv[0]);
    }
  }
  if (params.num_files == 0 || params.num_dirs == 0 || top_n == 0) {
    return Usage(argv[0]);
  }
  const bool mt_mode = config.mt_clients > 0;
  if (per_client && !mt_mode) {
    std::fprintf(stderr, "--per-client requires --mt=N\n");
    return Usage(argv[0]);
  }
  if ((per_shard || rename_pct > 0) && config.shards == 0) {
    std::fprintf(stderr, "--per-shard/--rename-pct require --shards=M\n");
    return Usage(argv[0]);
  }
  // Shard mode routes every op through M independent SimEnvs, so the global
  // span attribution / slowest-op / json reports (all single-env views) are
  // replaced by the per-shard table.
  if (config.shards > 0) {
    if (per_client || !json_out.empty()) {
      std::fprintf(stderr,
                   "--per-client/--json are not available with --shards\n");
      return Usage(argv[0]);
    }
    return RunSharded(kind, config, mt_ops, rename_pct, per_shard);
  }

  auto env_or = sim::SimEnv::Create(kind, config);
  if (!env_or.ok()) {
    std::fprintf(stderr, "env: %s\n", env_or.status().ToString().c_str());
    return 1;
  }
  sim::SimEnv* env = env_or->get();
  env->spans()->set_top_n(top_n);

  stats::MetricsSnapshot snap;
  if (mt_mode) {
    auto mt_params = mt::MtParams::FromConfig(config, {});
    if (!mt_params.ok()) {
      std::fprintf(stderr, "params: %s\n",
                   mt_params.status().ToString().c_str());
      return 1;
    }
    mt_params->ops_per_client = mt_ops;
    mt_params->antagonist = antagonist;
    mt::MtDriver driver(env, *mt_params);
    if (Status s = driver.Run(); !s.ok()) {
      std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
      return 1;
    }
    snap = stats::Snapshot(*env);
    snap.mt = driver.TakeStats();
    std::printf("%s: %u clients x %llu ops (%s%s), %.3f simulated seconds\n\n",
                sim::FsKindName(kind).c_str(), mt_params->clients,
                static_cast<unsigned long long>(mt_params->ops_per_client),
                snap.mt.scheduler.c_str(),
                antagonist ? ", antagonist" : "", snap.sim_seconds);
  } else {
    auto result = workload::RunSmallFile(env, params);
    if (!result.ok()) {
      std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
      return 1;
    }
    snap = stats::Snapshot(*env);
    std::printf("%s: %u files x %u B in %u dirs, %.3f simulated seconds\n\n",
                sim::FsKindName(kind).c_str(), params.num_files,
                params.file_bytes, params.num_dirs, snap.sim_seconds);
  }
  PrintAttribution(snap.spans);
  PrintSlowest(env->spans()->SlowestOps());
  if (per_client) PrintPerClient(snap, per_client_k);

  if (!json_out.empty()) {
    if (!WriteFile(json_out, snap.spans.ToJson().Dump(2))) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::printf("\njson: %s\n", json_out.c_str());
  }

  const auto violations = snap.CheckInvariants();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "invariant violated: %s\n", v.c_str());
  }
  return violations.empty() ? 0 : 1;
}
