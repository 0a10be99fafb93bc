// cffs_run: run one workload on a simulated machine and report on it.
//
//   cffs_run [KEY=VALUE ...] [--workload=smallfile|postmark|mt|xshard]
//            [--files=N] [--dirs=N] [--bytes=N] [--txns=N]
//            [--clients=N] [--ops=N] [--scheduler=fifo|drr]
//            [--backpressure=0|1] [--antagonist] [--rename-pct=N]
//            [--trace-out=PATH] [--record-out=PATH] [--snapshot-out=PATH]
//            [--capacity=N] [--top=N] [--json=PATH] [--per-client[=K]]
//            [--per-shard] [--check-ordering] [--report-out=PATH]
//            [--mutate=NAME]
//
// KEY=VALUE tokens describe the simulated machine, in the config-string
// syntax of src/sim/sim_env.h (fs=c-ffs by default; e.g. fs=ffs
// metadata=delayed syncer=1). A report's sim_config string pastes in whole.
// The machine is SimConfig{} plus exactly those tokens.
//
// Workloads:
//   smallfile  the paper's create/read/overwrite/delete sweep: --files
//              files of --bytes bytes in --dirs directories (100, 1024, 4);
//   postmark   a PostMark-style transaction mix replayed through the
//              namespace: a pool of --files files (up to 4 KB) in --dirs
//              directories, then --txns transactions (400);
//   mt         --clients closed-loop tenants (src/mt) issuing --ops ops
//              each through the --scheduler, with --backpressure and an
//              optional bulk-write --antagonist. With shards=M the
//              population fans out over M shards (src/shard): one service
//              loop per shard, directories placed by jump hashing, and
//              --rename-pct of the ops renaming files between directories;
//   xshard     --txns renames from a directory on shard 0 to one on shard
//              1, every one through the cross-shard journal; needs
//              shards=M with M >= 2.
//
// Outputs, in any combination, all from the one run:
//   --trace-out / --record-out / --snapshot-out write the Chrome trace, the
//     lossless record trace (cffs_ordercheck --trace reads it) and the
//     MetricsSnapshot JSON. --capacity sizes the trace ring, which runs
//     only for --trace-out, --record-out and --check-ordering.
//   Every single-env run prints the span attribution (src/obs/span.h): per
//     op type, the count, mean/p50/p99/p999 end-to-end latency and each
//     phase's share of the time; then the --top slowest ops as span trees.
//     --json writes the attribution as JSON. --per-client[=K] (mt without
//     shards) adds the K worst tenants by p99 full latency with their
//     throttle-stall share; --per-shard (mt with shards) adds one row per
//     shard with its dominant phase and high-water dirty gauge.
//   --check-ordering traces the run and checks the paper's write-ordering
//     rules (src/check/ordering_checker.h) once it is over, after pushing
//     each env's dirty tail to disk; on a sharded run it checks each
//     shard's trace and the cross-shard rename rules (src/check/xshard.h)
//     too. --report-out writes its report; --mutate breaks the discipline
//     on purpose so the check must convict: defer-inode-init (a create,
//     mkdir or link of an external inode writes the name before the inode)
//     and syncer-reorder (needs syncer=1) on one env,
//     xshard-skip-commit-sync and xshard-early-clear on xshard.
//
// Every env's MetricsSnapshot invariants are checked at the end, each
// shard's included; a trace ring that dropped events fails the run.
// Exit status: 0 clean, 1 on a violation or error, 2 on a bad command line
// or a flag the chosen workload and outputs cannot use.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/check/ordering_checker.h"
#include "src/check/xshard.h"
#include "src/fs/common/fs_base.h"
#include "src/io/syncer.h"
#include "src/mt/driver.h"
#include "src/shard/driver.h"
#include "src/stats/collect.h"
#include "src/util/cli.h"
#include "src/workload/smallfile.h"
#include "src/workload/trace.h"
#include "tools/ordering_report.h"

using namespace cffs;

namespace {

constexpr char kUsage[] =
    "[KEY=VALUE ...] [--workload=smallfile|postmark|mt|xshard]\n"
    "    [--files=N] [--dirs=N] [--bytes=N] [--txns=N]\n"
    "    [--clients=N] [--ops=N] [--scheduler=fifo|drr] [--backpressure=0|1]\n"
    "    [--antagonist] [--rename-pct=N]\n"
    "    [--trace-out=PATH] [--record-out=PATH] [--snapshot-out=PATH]\n"
    "    [--capacity=N] [--top=N] [--json=PATH] [--per-client[=K]]\n"
    "    [--per-shard] [--check-ordering] [--report-out=PATH]\n"
    "    [--mutate=defer-inode-init|syncer-reorder|\n"
    "              xshard-skip-commit-sync|xshard-early-clear]\n"
    "KEY=VALUE: the config-string keys of src/sim/sim_env.h";

enum class Workload { kSmallFile, kPostmark, kMt, kXshard };

// One command line, checked.
struct Run {
  sim::FsKind kind = sim::FsKind::kCffs;
  sim::SimConfig config;
  Workload workload = Workload::kSmallFile;
  uint32_t files = 100, dirs = 4, bytes = 1024;
  uint32_t txns = 400;  // postmark transactions, or xshard renames
  mt::MtParams mt;
  std::string trace_out, record_out, snapshot_out, json_out;
  size_t capacity = obs::TraceRecorder::kDefaultCapacity;
  size_t top_n = 10;
  size_t per_client_k = 0;  // 0: no per-client table
  bool per_shard = false;
  bool check_ordering = false;
  std::string report_out, mutate;

  bool sharded() const { return config.shards > 0; }
  bool traced() const {
    return check_ordering || !trace_out.empty() || !record_out.empty();
  }
};

Status Parse(int argc, char** argv, Run* r) {
  Args args(argc, argv);
  std::string machine;
  for (const std::string& w : args.Words()) machine += w + " ";
  const Status config_status = sim::ParseConfig(machine, &r->kind, &r->config);
  // The driver's defaults: the sharded ones give each client the two
  // directories a rename needs.
  if (r->sharded()) r->mt = shard::ShardDriverParams();

  std::string workload = "smallfile", scheduler;
  args.String("--workload", &workload);
  const bool files_given = args.Uint("--files", 1, 1u << 24, &r->files);
  const bool dirs_given = args.Uint("--dirs", 1, 1u << 20, &r->dirs);
  const bool bytes_given = args.Uint("--bytes", 0, 1u << 26, &r->bytes);
  const bool txns_given = args.Uint("--txns", 1, 1u << 24, &r->txns);
  const bool clients_given = args.Uint("--clients", 1, 1u << 16, &r->mt.clients);
  const bool ops_given = args.Uint("--ops", 1, 1u << 24, &r->mt.ops_per_client);
  const bool scheduler_given = args.String("--scheduler", &scheduler);
  const bool backpressure_given =
      args.Uint("--backpressure", 0, 1, &r->mt.backpressure);
  r->mt.antagonist = args.Switch("--antagonist");
  const bool rename_given = args.Uint("--rename-pct", 0, 100, &r->mt.rename_pct);
  const bool trace_given = args.String("--trace-out", &r->trace_out);
  const bool record_given = args.String("--record-out", &r->record_out);
  const bool snapshot_given = args.String("--snapshot-out", &r->snapshot_out);
  const bool capacity_given = args.Uint("--capacity", 1, 1u << 24, &r->capacity);
  const bool top_given = args.Uint("--top", 1, 1u << 20, &r->top_n);
  const bool json_given = args.String("--json", &r->json_out);
  if (args.Switch("--per-client")) r->per_client_k = 10;
  args.Uint("--per-client", 1, 1u << 16, &r->per_client_k);
  r->per_shard = args.Switch("--per-shard");
  r->check_ordering = args.Switch("--check-ordering");
  const bool report_given = args.String("--report-out", &r->report_out);
  const bool mutate_given = args.String("--mutate", &r->mutate);
  RETURN_IF_ERROR(args.Finish());
  RETURN_IF_ERROR(config_status);

  if (workload == "smallfile") {
    r->workload = Workload::kSmallFile;
  } else if (workload == "postmark") {
    r->workload = Workload::kPostmark;
  } else if (workload == "mt") {
    r->workload = Workload::kMt;
  } else if (workload == "xshard") {
    r->workload = Workload::kXshard;
  } else {
    return InvalidArgument("unknown --workload=" + workload +
                           " (smallfile | postmark | mt | xshard)");
  }
  if (scheduler_given && !mt::ParseSchedulerKind(scheduler, &r->mt.scheduler)) {
    return InvalidArgument("--scheduler: unknown name \"" + scheduler +
                           "\" (fifo | drr)");
  }
  const bool xshard_mutation = r->mutate == "xshard-skip-commit-sync" ||
                               r->mutate == "xshard-early-clear";
  if (mutate_given && r->mutate != "defer-inode-init" &&
      r->mutate != "syncer-reorder" && !xshard_mutation) {
    return InvalidArgument("unknown --mutate=" + r->mutate);
  }

  // Every flag given must be one the workload and outputs use.
  const Workload w = r->workload;
  const bool sf = w == Workload::kSmallFile, pm = w == Workload::kPostmark;
  const bool mt = w == Workload::kMt, xs = w == Workload::kXshard;
  const bool sharded = r->sharded();
  const struct {
    bool given, usable;
    const char* flags;
    const char* need;
  } uses[] = {
      {files_given || dirs_given, sf || pm, "--files and --dirs",
       "--workload=smallfile|postmark"},
      {bytes_given, sf, "--bytes", "--workload=smallfile"},
      {txns_given, pm || xs, "--txns", "--workload=postmark|xshard"},
      {clients_given || ops_given || scheduler_given || backpressure_given,
       mt, "--clients, --ops, --scheduler and --backpressure",
       "--workload=mt"},
      {r->mt.antagonist || r->per_client_k > 0, mt && !sharded,
       "--antagonist and --per-client", "--workload=mt without shards=M"},
      {rename_given || r->per_shard, mt && sharded,
       "--rename-pct and --per-shard", "--workload=mt with shards=M"},
      {sharded, mt || xs, "shards=M", "--workload=mt|xshard"},
      {trace_given || record_given || snapshot_given || top_given ||
           json_given,
       !sharded,
       "--trace-out, --record-out, --snapshot-out, --top and --json",
       "a run without shards=M"},
      {capacity_given, r->traced(), "--capacity",
       "--trace-out, --record-out or --check-ordering"},
      {report_given || mutate_given, r->check_ordering,
       "--report-out and --mutate",
       "--check-ordering"},
      {xshard_mutation, xs, "--mutate=xshard-*", "--workload=xshard"},
      {!r->mutate.empty() && !xshard_mutation, !sharded,
       "--mutate=defer-inode-init|syncer-reorder", "a run without shards=M"},
      {r->mutate == "syncer-reorder", r->config.syncer,
       "--mutate=syncer-reorder", "syncer=1"},
      {xs, r->config.shards >= 2, "--workload=xshard", "shards=M with M >= 2"},
  };
  for (const auto& u : uses) {
    if (u.given && !u.usable) {
      return InvalidArgument(std::string(u.flags) + ": only with " + u.need);
    }
  }
  return OkStatus();
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
// high-water dirty gauge from the shard's sampler series.
void PrintPerShard(shard::ShardRouter* router,
                   const shard::ShardDriverStats& st) {
  std::printf("\nper-shard breakdown (%u shards):\n", st.shards);
  std::printf("  %-5s %7s %7s %9s %9s %10s %10s  %-14s %8s\n", "shard",
              "ops", "xren", "p99_ms", "mean_ms", "qwait_ms", "svc_ms",
              "dominant", "dirty_hw");
  for (const shard::ShardOpStats& s : st.per_shard) {
    sim::SimEnv* env = router->env(s.shard_id);
    const obs::PhaseBreakdown& spans = env->spans()->breakdown();
    // Dominant phase: largest share of the shard's span-attributed time.
    int64_t phase_ns[obs::kPhaseCount] = {};
    for (const obs::OpTypeBreakdown& b : spans.per_op) {
      for (int p = 0; p < obs::kPhaseCount; ++p) phase_ns[p] += b.totals.ns[p];
    }
    int dominant = 0;
    for (int p = 1; p < obs::kPhaseCount; ++p) {
      if (static_cast<obs::Phase>(p) == obs::Phase::kCacheHit) continue;
      if (phase_ns[p] > phase_ns[dominant]) dominant = p;
    }
    uint64_t dirty_hw = 0;
    for (const obs::TimeSample& ts : env->sampler()->samples()) {
      dirty_hw = std::max(dirty_hw, ts.dirty_blocks);
    }
    std::printf("  %-5u %7llu %7llu %9.3f %9.3f %10.3f %10.3f  %-14s %8llu\n",
                s.shard_id, static_cast<unsigned long long>(s.ops),
                static_cast<unsigned long long>(s.renames_in),
                Ms(s.latency.p99().nanos()), Ms(s.latency.mean().nanos()),
                Ms(s.queue_wait_ns), Ms(s.service_ns),
                s.ops > 0 ? obs::PhaseName(static_cast<obs::Phase>(dominant))
                          : "-",
                static_cast<unsigned long long>(dirty_hw));
  }
}

// Pushes the env's dirty tail to disk so the ordering check can judge
// every annotation (R-LOST): first through the syncer, so the trace holds
// a syncer-emitted epoch even when the run ended inside the first interval
// (and syncer-reorder reliably misorders one), then with a Sync.
Status Settle(sim::SimEnv* env) {
  if (env->syncer() != nullptr) {
    RETURN_IF_ERROR(env->syncer()->FlushNow());
    RETURN_IF_ERROR(env->syncer_status());
  }
  return env->fs()->Sync();
}

// Checks every MetricsSnapshot invariant of `env`, with the mt books of a
// single-env MtDriver run; prints each violation after `label`.
int CheckEnv(sim::SimEnv* env, const mt::MtStats& mt, const std::string& label) {
  stats::MetricsSnapshot snap = stats::Snapshot(*env);
  snap.mt = mt;
  const std::vector<std::string> violations = snap.CheckInvariants();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%sinvariant violated: %s\n", label.c_str(),
                 v.c_str());
  }
  if (snap.trace_dropped > 0) {
    std::fprintf(stderr,
                 "%strace ring dropped %llu events; rerun with a larger "
                 "--capacity\n",
                 label.c_str(),
                 static_cast<unsigned long long>(snap.trace_dropped));
  }
  return violations.empty() ? 0 : 1;
}

int RunSingle(const Run& r) {
  auto env_or = sim::SimEnv::Create(r.kind, r.config);
  if (!env_or.ok()) return Fail("env", env_or.status());
  sim::SimEnv* env = env_or->get();
  env->spans()->set_top_n(r.top_n);
  if (r.traced()) env->EnableTrace(r.capacity);
  if (r.mutate == "defer-inode-init") {
    env->fs_base()->set_ordering_mutation_for_test(
        fs::FsBase::OrderingMutation::kDeferInodeInit);
  } else if (r.mutate == "syncer-reorder") {
    env->syncer()->set_mutation_for_test(io::SyncerMutation::kSyncerReorder);
  }

  const std::string name = sim::FsKindName(r.kind);
  mt::MtStats mt_stats;
  switch (r.workload) {
    case Workload::kSmallFile: {
      workload::SmallFileParams p;
      p.num_files = r.files;
      p.num_dirs = r.dirs;
      p.file_bytes = r.bytes;
      auto result = workload::RunSmallFile(env, p);
      if (!result.ok()) return Fail("run", result.status());
      std::printf("%s: %u files x %u B in %u dirs", name.c_str(), r.files,
                  r.bytes, r.dirs);
      break;
    }
    case Workload::kPostmark: {
      workload::PostmarkParams p;
      p.initial_files = r.files;
      p.num_dirs = r.dirs;
      p.transactions = r.txns;
      // Keep the working set well inside the cache: the ordering check is
      // about the file system's discipline, not the cache's sizing.
      p.max_bytes = 4096;
      auto result = workload::ReplayTrace(env, workload::GeneratePostmark(p));
      if (!result.ok()) return Fail("run", result.status());
      std::printf("%s: postmark, %u files in %u dirs + %u transactions",
                  name.c_str(), r.files, r.dirs, r.txns);
      break;
    }
    default: {  // Workload::kMt
      mt::MtDriver driver(env, r.mt);
      if (Status s = driver.Run(); !s.ok()) return Fail("run", s);
      mt_stats = driver.TakeStats();
      std::printf("%s: %u clients x %llu ops (%s%s)", name.c_str(),
                  r.mt.clients,
                  static_cast<unsigned long long>(r.mt.ops_per_client),
                  mt_stats.scheduler.c_str(),
                  r.mt.antagonist ? ", antagonist" : "");
      break;
    }
  }
  stats::MetricsSnapshot snap = stats::Snapshot(*env);
  snap.mt = mt_stats;
  std::printf(", %.3f simulated seconds\n", snap.sim_seconds);

  const obs::TraceRecorder* trace = env->trace();
  Status written;
  auto write = [&](const std::string& path, const char* what, auto text) {
    if (path.empty() || !written.ok()) return;
    written = WriteTextFile(path, text());
    if (written.ok()) std::printf("%-9s %s\n", what, path.c_str());
  };
  write(r.trace_out, "trace:", [&] { return trace->ToChromeJson(); });
  write(r.record_out, "record:", [&] { return trace->ToRecordJson(); });
  write(r.snapshot_out, "snapshot:", [&] { return snap.ToJsonString(); });
  write(r.json_out, "json:", [&] { return snap.spans.ToJson().Dump(2); });
  if (!written.ok()) return Fail("write", written);
  if (trace != nullptr) {
    std::printf("trace ring: %zu events, %llu dropped\n", trace->size(),
                static_cast<unsigned long long>(trace->dropped()));
  }
  std::printf("\n");
  PrintAttribution(snap.spans);
  PrintSlowest(env->spans()->SlowestOps());
  if (r.per_client_k > 0) PrintPerClient(snap, r.per_client_k);

  int rc = 0;
  if (r.check_ordering) {
    if (Status s = Settle(env); !s.ok()) return Fail("settle", s);
    std::printf("\n");
    rc = PrintOrderingReport(check::OrderingChecker::CheckTrace(*env->trace()),
                             r.report_out);
  }
  return std::max(rc, CheckEnv(env, mt_stats, ""));
}

// xshard: every rename crosses from a directory on shard 0 to one on
// shard 1, so each runs the two-phase journal protocol.
Status RunXshard(shard::ShardRouter* router, uint32_t renames,
                 const std::string& mutate) {
  auto dir_on = [&](uint32_t want) -> std::string {
    for (int i = 0; i < 1000; ++i) {
      std::string d = "/x" + std::to_string(i);
      if (shard::ShardForDir(d, router->shards()) == want) {
        return d;
      }
    }
    return "/";
  };
  const std::string src_dir = dir_on(0);
  const std::string dst_dir = dir_on(1);
  const std::vector<uint8_t> payload(512, 0x5a);
  RETURN_IF_ERROR(router->Mkdir(src_dir));
  RETURN_IF_ERROR(router->Mkdir(dst_dir));
  for (uint32_t i = 0; i < renames; ++i) {
    RETURN_IF_ERROR(
        router->WriteFile(src_dir + "/f" + std::to_string(i), payload));
  }
  RETURN_IF_ERROR(router->SyncAll());
  router->set_mutation(mutate);
  for (uint32_t i = 0; i < renames; ++i) {
    const std::string name = "/f" + std::to_string(i);
    RETURN_IF_ERROR(router->Rename(src_dir + name, dst_dir + name));
  }
  router->set_mutation("");
  return OkStatus();
}

int RunSharded(const Run& r) {
  auto router_or = shard::ShardRouter::Create(r.kind, r.config);
  if (!router_or.ok()) return Fail("router", router_or.status());
  shard::ShardRouter* router = router_or->get();
  if (r.traced()) router->EnableTrace(r.capacity);
  const std::string name = sim::FsKindName(r.kind);

  int rc = 0;
  if (r.workload == Workload::kXshard) {
    if (Status s = RunXshard(router, r.txns, r.mutate); !s.ok()) {
      return Fail("run", s);
    }
    std::printf("%s x %u shards: %u cross-shard renames (%llu completed), "
                "%.3f simulated seconds\n",
                name.c_str(), router->shards(), r.txns,
                static_cast<unsigned long long>(router->stats().renames_cross),
                static_cast<double>(router->MaxClockNs()) / 1e9);
  } else {
    shard::ShardDriver driver(router, r.mt);
    if (Status s = driver.Run(); !s.ok()) return Fail("run", s);
    const shard::ShardDriverStats& st = driver.stats();
    std::printf("%s x %u shards: %u clients x %llu ops, %llu cross-shard "
                "renames, %.3f simulated seconds\n",
                name.c_str(), st.shards, r.mt.clients,
                static_cast<unsigned long long>(r.mt.ops_per_client),
                static_cast<unsigned long long>(st.renames_cross),
                static_cast<double>(st.elapsed_ns) / 1e9);
    if (r.per_shard) PrintPerShard(router, st);
    uint64_t shard_ops = 0;
    for (const shard::ShardOpStats& s : st.per_shard) shard_ops += s.ops;
    if (shard_ops != st.mt.ops_serviced) {
      std::fprintf(stderr,
                   "invariant violated: per-shard ops %llu != serviced %llu\n",
                   static_cast<unsigned long long>(shard_ops),
                   static_cast<unsigned long long>(st.mt.ops_serviced));
      rc = 1;
    }
  }

  if (r.check_ordering) {
    // The xshard workload ends on the rename protocol's own sync barrier.
    check::CrossShardChecker cross;
    for (uint32_t i = 0; i < router->shards(); ++i) {
      sim::SimEnv* env = router->env(i);
      if (r.workload != Workload::kXshard) {
        if (Status s = Settle(env); !s.ok()) return Fail("settle", s);
      }
      const check::OrderingReport report =
          check::OrderingChecker::CheckTrace(*env->trace());
      if (!report.clean()) {
        std::fprintf(stderr, "shard %u: per-shard ordering violations\n", i);
        for (const check::Violation& v : report.violations) {
          std::fprintf(stderr, "  %s: %s\n", check::RuleName(v.rule),
                       v.detail.c_str());
        }
        rc = 1;
      }
      cross.NoteDropped(env->trace()->dropped());
      cross.ConsumeShard(i, env->trace()->Events());
    }
    std::printf("\n");
    rc = std::max(rc, PrintOrderingReport(cross.Finish(), r.report_out));
  }
  for (uint32_t i = 0; i < router->shards(); ++i) {
    rc = std::max(rc, CheckEnv(router->env(i), mt::MtStats{},
                               "shard " + std::to_string(i) + ": "));
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  if (Status s = Parse(argc, argv, &r); !s.ok()) {
    return UsageError(argv[0], s, kUsage);
  }
  return r.sharded() ? RunSharded(r) : RunSingle(r);
}
