// cffs_trace: run a small-file workload with event tracing enabled and dump
// the results for offline analysis.
//
//   cffs_trace [KEY=VALUE ...] [--files=N] [--dirs=N] [--bytes=N]
//              [--trace-out=PATH] [--snapshot-out=PATH] [--capacity=N]
//              [--record-out=PATH]
//
// KEY=VALUE tokens describe the simulated machine, in the config-string
// syntax of src/sim/sim_env.h (fs=c-ffs by default; e.g. fs=ffs
// device=flash extent_alloc=1). device=flash swaps the mechanical disk for
// the channel/queue-depth flash model (trace events then carry kFlashIo
// records with per-command wait/program/erase splits).
// Writes a Chrome trace-event JSON (open in perfetto / chrome://tracing)
// and a MetricsSnapshot JSON with every counter and latency histogram.
// --record-out additionally dumps the lossless record-format trace
// (cffs-trace-v1) that cffs_ordercheck --trace consumes.
// Counter invariants are checked after the run; violations go to stderr and
// fail the tool. A bad argument prints a message and exits 2.
#include <cstdio>
#include <string>

#include "src/stats/collect.h"
#include "src/util/cli.h"
#include "src/workload/smallfile.h"

using namespace cffs;

namespace {

constexpr char kUsage[] =
    "[KEY=VALUE ...] [--files=N] [--dirs=N] [--bytes=N] [--capacity=N]\n"
    "    [--trace-out=PATH] [--snapshot-out=PATH] [--record-out=PATH]\n"
    "KEY=VALUE: the config-string keys of src/sim/sim_env.h";

}  // namespace

int main(int argc, char** argv) {
  sim::FsKind kind = sim::FsKind::kCffs;
  sim::SimConfig config;
  workload::SmallFileParams params;
  params.num_files = 100;
  params.num_dirs = 4;
  size_t capacity = obs::TraceRecorder::kDefaultCapacity;
  std::string trace_out, snapshot_out, record_out;

  Args args(argc, argv);
  args.Uint("--files", 1, 1u << 24, &params.num_files);
  args.Uint("--dirs", 1, 1u << 20, &params.num_dirs);
  args.Uint("--bytes", 0, 1u << 26, &params.file_bytes);
  args.Uint("--capacity", 1, 1u << 24, &capacity);
  args.String("--trace-out", &trace_out);
  args.String("--snapshot-out", &snapshot_out);
  args.String("--record-out", &record_out);
  std::string machine;
  for (const std::string& w : args.Words()) machine += w + " ";
  Status s = args.Finish();
  if (s.ok()) s = sim::ParseConfig(machine, &kind, &config);
  if (!s.ok()) return UsageError(argv[0], s, kUsage);

  const std::string kind_name = sim::FsKindName(kind);
  if (trace_out.empty()) trace_out = kind_name + ".trace.json";
  if (snapshot_out.empty()) snapshot_out = kind_name + ".snapshot.json";

  auto env_or = sim::SimEnv::Create(kind, config);
  if (!env_or.ok()) return Fail("env", env_or.status());
  sim::SimEnv* env = env_or->get();
  env->EnableTrace(capacity);

  auto result = workload::RunSmallFile(env, params);
  if (!result.ok()) return Fail("run", result.status());

  const stats::MetricsSnapshot snap = stats::Snapshot(*env);
  const obs::TraceRecorder* trace = env->trace();
  s = WriteTextFile(trace_out, trace->ToChromeJson());
  if (s.ok()) s = WriteTextFile(snapshot_out, snap.ToJsonString());
  if (s.ok() && !record_out.empty()) {
    s = WriteTextFile(record_out, trace->ToRecordJson());
  }
  if (!s.ok()) return Fail("write", s);
  if (!record_out.empty()) std::printf("record:   %s\n", record_out.c_str());

  std::printf("%s: %u files x %u B in %u dirs, %.3f simulated seconds\n",
              kind_name.c_str(), params.num_files, params.file_bytes,
              params.num_dirs, snap.sim_seconds);
  std::printf("trace:    %s (%zu events, %llu dropped)\n", trace_out.c_str(),
              trace->size(),
              static_cast<unsigned long long>(trace->dropped()));
  std::printf("snapshot: %s\n", snapshot_out.c_str());
  if (trace->dropped() > 0) {
    std::fprintf(stderr,
                 "warning: trace ring dropped %llu events — the trace and "
                 "every analysis derived from it are incomplete; rerun with "
                 "a larger --capacity\n",
                 static_cast<unsigned long long>(trace->dropped()));
  }

  const auto violations = snap.CheckInvariants();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "invariant violated: %s\n", v.c_str());
  }
  return violations.empty() ? 0 : 1;
}
