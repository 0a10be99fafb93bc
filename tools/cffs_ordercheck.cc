// cffs_ordercheck: verify metadata write-ordering rules over a recorded
// trace, or over a freshly traced in-process workload.
//
// Offline mode (the normal one — analyze a dump made by cffs_trace
// --record-out):
//
//   cffs_ordercheck --trace=PATH [--report-out=PATH]
//
// In-process mode (trace a workload and check it in one step):
//
//   cffs_ordercheck --run [KEY=VALUE ...]
//                   [--workload=smallfile|postmark|multitenant|sharded]
//                   [--files=N] [--dirs=N] [--bytes=N] [--txns=N]
//                   [--clients=N]
//                   [--mutate=defer-inode-init|syncer-reorder|
//                            xshard-skip-commit-sync|xshard-early-clear]
//                   [--report-out=PATH]
//
// KEY=VALUE tokens describe the simulated machine, in the config-string
// syntax of src/sim/sim_env.h (fs=c-ffs by default; e.g. fs=ffs
// metadata=delayed syncer=1). Every workload runs on that one config.
// Here syncer_interval and syncer_max_age default to 100 ms, so syncer=1
// flushes actually fire inside a short workload and the checker gates
// syncer-emitted commit epochs; meaningful with metadata=delayed.
// --workload=postmark replays a PostMark-style transaction mix
// (create/delete paired with read/append) instead of the small-file
// sweep; --files then sets the initial pool and --txns the transaction
// count.
// --workload=multitenant drives N interleaved clients (src/mt, default
// DRR + backpressure) through the service loop; --clients sets N and
// --txns the ops per client. The ordering rules must hold no matter how
// tenant op streams interleave — every mutation still commits through
// the same FsBase epochs.
// --mutate=defer-inode-init flips the FFS create path into its
// deliberately-misordered self-test variant (name committed before inode);
// the tool is then expected to exit 1 with an R-CREATE violation.
// --mutate=syncer-reorder (requires syncer=1) makes the syncer issue its
// flush plan as per-block epochs in descending block order instead of one
// atomic epoch — dirent blocks commit before the inodes they name, so a
// delayed-policy run must likewise be convicted of R-CREATE.
// --workload=sharded builds an M-shard router (shards=M, default 2), runs
// --txns cross-shard renames through the two-phase journal protocol, and
// checks TWO things: each shard's own trace against the standard ordering
// rules, and the merged per-shard traces against the cross-shard rules
// (R-XPREP/R-XCOMMIT/R-XSRC/R-XDANGLE, src/check/xshard.h). The
// xshard-* mutations break the protocol on purpose (commit barrier with no
// sync behind it; source cleared before the commit step) and the tool is
// then expected to exit 1 with an R-XCOMMIT violation.
//
// Exit status: 0 when the trace is clean, 1 on violations or errors, 2 on a
// bad argument (so a typo can never pass for a conviction).
#include <cstdio>
#include <string>

#include "src/check/ordering_checker.h"
#include "src/check/xshard.h"
#include "src/fs/common/fs_base.h"
#include "src/io/syncer.h"
#include "src/mt/driver.h"
#include "src/shard/placement.h"
#include "src/shard/router.h"
#include "src/util/cli.h"
#include "src/workload/smallfile.h"
#include "src/workload/trace.h"

using namespace cffs;

namespace {

constexpr char kUsage[] =
    "--trace=PATH | --run [KEY=VALUE ...]\n"
    "    [--workload=smallfile|postmark|multitenant|sharded]\n"
    "    [--files=N] [--dirs=N] [--bytes=N] [--txns=N] [--clients=N]\n"
    "    [--mutate=defer-inode-init|syncer-reorder|\n"
    "              xshard-skip-commit-sync|xshard-early-clear]\n"
    "    [--report-out=PATH]\n"
    "KEY=VALUE: the config-string keys of src/sim/sim_env.h";

int Report(const check::OrderingReport& report,
           const std::string& report_out) {
  const std::string json = report.ToJson(2);
  if (!report_out.empty()) {
    if (Status s = WriteTextFile(report_out, json); !s.ok()) {
      return Fail("report", s);
    }
    std::printf("report: %s\n", report_out.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  for (const check::Violation& v : report.violations) {
    std::fprintf(stderr, "%s op=%llu bno=%llu subject=%llu: %s\n",
                 check::RuleName(v.rule),
                 static_cast<unsigned long long>(v.op_id),
                 static_cast<unsigned long long>(v.bno),
                 static_cast<unsigned long long>(v.subject),
                 v.detail.c_str());
  }
  return report.clean() ? 0 : 1;
}

// Sharded mode: drive cross-shard renames through the two-phase protocol
// and check both the per-shard ordering rules and the cross-shard rules.
int RunSharded(sim::FsKind kind, const sim::SimConfig& config, uint32_t txns,
               const std::string& mutate, const std::string& report_out) {
  auto router_or = shard::ShardRouter::Create(kind, config);
  if (!router_or.ok()) return Fail("router", router_or.status());
  shard::ShardRouter& r = **router_or;
  r.EnableTrace();

  // One source dir on shard 0, one destination dir on shard 1, so every
  // rename crosses shards.
  auto dir_on = [&](uint32_t want) -> std::string {
    for (int i = 0; i < 1000; ++i) {
      std::string d = "/x" + std::to_string(i);
      if (shard::ShardForDir(d, r.shards(), r.placement()) == want) return d;
    }
    return "/";
  };
  const std::string src_dir = dir_on(0);
  const std::string dst_dir = dir_on(1 % r.shards());
  const std::vector<uint8_t> payload(512, 0x5a);
  auto run = [&]() -> Status {
    RETURN_IF_ERROR(r.Mkdir(src_dir));
    RETURN_IF_ERROR(r.Mkdir(dst_dir));
    for (uint32_t i = 0; i < txns; ++i) {
      RETURN_IF_ERROR(
          r.WriteFile(src_dir + "/f" + std::to_string(i), payload));
    }
    RETURN_IF_ERROR(r.SyncAll());
    r.set_mutation(mutate);
    for (uint32_t i = 0; i < txns; ++i) {
      const std::string name = "/f" + std::to_string(i);
      RETURN_IF_ERROR(r.Rename(src_dir + name, dst_dir + name));
    }
    r.set_mutation("");
    return OkStatus();
  };
  if (Status s = run(); !s.ok()) return Fail("run", s);

  // Each shard's own trace must still satisfy the single-disk rules.
  int rc = 0;
  for (uint32_t s = 0; s < r.shards(); ++s) {
    auto shard_report = check::OrderingChecker::CheckTrace(*r.env(s)->trace());
    if (!shard_report.clean()) {
      std::fprintf(stderr, "shard %u: per-shard ordering violations\n", s);
      for (const check::Violation& v : shard_report.violations) {
        std::fprintf(stderr, "  %s: %s\n", check::RuleName(v.rule),
                     v.detail.c_str());
      }
      rc = 1;
    }
  }

  check::CrossShardChecker checker;
  for (uint32_t s = 0; s < r.shards(); ++s) {
    checker.NoteDropped(r.env(s)->trace()->dropped());
    checker.ConsumeShard(s, r.env(s)->trace()->Events());
  }
  std::printf("sharded: %u shards, %u cross-shard renames (%llu completed)\n",
              r.shards(), txns,
              static_cast<unsigned long long>(r.stats().renames_cross));
  const int cross_rc = Report(checker.Finish(), report_out);
  return rc != 0 ? rc : cross_rc;
}

}  // namespace

int main(int argc, char** argv) {
  sim::FsKind kind = sim::FsKind::kCffs;
  sim::SimConfig config;
  config.syncer_interval = SimTime::Millis(100);
  config.syncer_max_age = SimTime::Millis(100);
  workload::SmallFileParams params;
  params.num_files = 100;
  params.num_dirs = 4;
  uint32_t clients = 16;
  uint32_t txns = 400;
  std::string trace_path, report_out, workload_name = "smallfile", mutate;

  Args args(argc, argv);
  const bool run = args.Switch("--run");
  args.String("--trace", &trace_path);
  args.String("--report-out", &report_out);
  args.String("--workload", &workload_name);
  args.Uint("--files", 1, 1u << 24, &params.num_files);
  args.Uint("--dirs", 1, 1u << 20, &params.num_dirs);
  args.Uint("--bytes", 0, 1u << 26, &params.file_bytes);
  args.Uint("--txns", 0, 1u << 24, &txns);
  args.Uint("--clients", 1, 1u << 16, &clients);
  args.String("--mutate", &mutate);
  std::string machine;
  for (const std::string& w : args.Words()) machine += w + " ";
  const bool sharded = workload_name == "sharded";
  const bool xshard_mutation = mutate == "xshard-skip-commit-sync" ||
                               mutate == "xshard-early-clear";
  auto validate = [&]() -> Status {
    RETURN_IF_ERROR(args.Finish());
    if (run == !trace_path.empty()) {
      return InvalidArgument("give exactly one of --run and --trace=PATH");
    }
    if (!run && !machine.empty()) {
      return InvalidArgument("KEY=VALUE tokens need --run");
    }
    RETURN_IF_ERROR(sim::ParseConfig(machine, &kind, &config));
    if (workload_name != "smallfile" && workload_name != "postmark" &&
        workload_name != "multitenant" && !sharded) {
      return InvalidArgument("unknown --workload=" + workload_name);
    }
    if (!mutate.empty() && mutate != "defer-inode-init" &&
        mutate != "syncer-reorder" && !xshard_mutation) {
      return InvalidArgument("unknown --mutate=" + mutate);
    }
    if (mutate == "syncer-reorder" && !config.syncer) {
      return InvalidArgument("--mutate=syncer-reorder requires syncer=1");
    }
    if (sharded != xshard_mutation && !mutate.empty()) {
      return InvalidArgument("--workload=sharded takes exactly the xshard-* "
                             "mutations");
    }
    if (sharded && config.shards == 0) config.shards = 2;
    if (sharded ? config.shards < 2 : config.shards != 0) {
      return InvalidArgument("--workload=sharded needs shards=M, M >= 2, and "
                             "no other workload takes shards=M");
    }
    return OkStatus();
  };
  if (Status s = validate(); !s.ok()) return UsageError(argv[0], s, kUsage);

  if (sharded) {
    // The sharded workload is a handful of two-phase renames, not the full
    // transaction mix — cap the default so it stays quick.
    return RunSharded(kind, config, txns > 64 ? 8 : txns, mutate, report_out);
  }

  if (!trace_path.empty()) {
    auto text = ReadTextFile(trace_path);
    if (!text.ok()) return Fail("read", text.status());
    auto trace = obs::TraceRecorder::FromRecordJson(*text);
    if (!trace.ok()) return Fail("parse " + trace_path, trace.status());
    return Report(check::OrderingChecker::CheckTrace(*trace), report_out);
  }

  auto env_or = sim::SimEnv::Create(kind, config);
  if (!env_or.ok()) return Fail("env", env_or.status());
  sim::SimEnv* env = env_or->get();
  env->EnableTrace();
  if (mutate == "defer-inode-init") {
    static_cast<fs::FsBase*>(env->fs())->set_ordering_mutation_for_test(
        fs::FsBase::OrderingMutation::kDeferInodeInit);
  } else if (mutate == "syncer-reorder") {
    env->syncer()->set_mutation_for_test(io::SyncerMutation::kSyncerReorder);
  }

  if (workload_name == "multitenant") {
    mt::MtParams mtp;
    mtp.clients = clients;
    mtp.ops_per_client = txns > 0 ? txns : 16;  // --txns = ops per client
    mt::MtDriver driver(env, mtp);
    if (Status s = driver.Run(); !s.ok()) return Fail("run", s);
  } else if (workload_name == "postmark") {
    // Keep the working set well inside the cache: a mid-run eviction is a
    // single-block write the delayed policy cannot order, and the gate is
    // about the file system's discipline, not the cache's sizing.
    workload::PostmarkParams pm;
    pm.initial_files = params.num_files;
    pm.transactions = txns;
    pm.num_dirs = params.num_dirs;
    pm.max_bytes = 4096;
    auto replayed = workload::ReplayTrace(env, workload::GeneratePostmark(pm));
    if (!replayed.ok()) return Fail("run", replayed.status());
  } else {
    auto result = workload::RunSmallFile(env, params);
    if (!result.ok()) return Fail("run", result.status());
  }
  if (config.syncer) {
    // Push the tail of the dirty set through the syncer path too, so the
    // checked trace contains at least one syncer-emitted epoch even when
    // the workload finished inside the first interval (and so the mutated
    // self-test reliably produces its misordered epochs).
    if (Status s = env->syncer()->FlushNow(); !s.ok()) {
      return Fail("syncer flush", s);
    }
    if (Status s = env->syncer_status(); !s.ok()) return Fail("syncer", s);
  }
  if (Status s = env->fs()->Sync(); !s.ok()) return Fail("sync", s);
  return Report(check::OrderingChecker::CheckTrace(*env->trace()),
                report_out);
}
