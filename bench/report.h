// Machine-readable bench reports, and the one path from a finished machine
// to its report.
//
// Every bench binary builds one Report and calls Write() at the end, which
// drops BENCH_<name>.json next to the binary's working directory (or into
// $CFFS_BENCH_DIR when set). A bench that finds its own results broken
// (Fail()) still writes the report, then exits 1. The schema is shared
// across benches:
//
//   {
//     "bench": "<name>",
//     "schema_version": 1,
//     "quick": false,              // reduced CI-style run?
//     "params": { ... },           // bench-specific knobs
//     "rows": [ ... ],             // one object per printed table row
//     "spans": { "<label>": ... }, // per-configuration span attribution
//     "sim_config": { "<label>": "fs=c-ffs disk=... shards=0" },
//     ... bench-specific extras (snapshots, speedups, notes)
//   }
//
// Each sim_config string is sim::ConfigString of the configuration that
// label ran, so pasting it into cffs_run re-runs that machine.
//
// Every machine a bench builds ends in Check() or AddMachine(): both fail
// the report, naming the machine's label, on any MetricsSnapshot invariant
// it breaks, and AddMachine also records its spans and sim_config. The
// smallfile benches build, run and record their machines through
// RunSmallFile(), whose rows come from PhaseJson(): the per-phase device
// time breakdown, so the report can answer "where did the time go" without
// re-running. Counter dumps use SnapshotJson() (MetricsSnapshot::ToJson(),
// see src/stats/metrics.h, less its spans and time series).
//
// Header-only on purpose: bench binaries are one file each.
#ifndef CFFS_BENCH_REPORT_H_
#define CFFS_BENCH_REPORT_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/obs/json.h"
#include "src/sim/sim_env.h"
#include "src/stats/collect.h"
#include "src/util/cli.h"
#include "src/workload/smallfile.h"

namespace cffs::bench {

// The flags every bench takes: --quick (a reduced CI-sized run) and
// --verbose (extra per-row detail, where a bench has any). Anything else
// prints a message and exits 2.
struct BenchArgs {
  bool quick = false;
  bool verbose = false;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  Args args(argc, argv);
  BenchArgs out;
  out.quick = args.Switch("--quick");
  out.verbose = args.Switch("--verbose");
  if (Status s = args.Finish(); !s.ok()) {
    std::exit(UsageError(argv[0], s, "[--quick] [--verbose]"));
  }
  return out;
}

class Report {
 public:
  explicit Report(std::string name)
      : name_(std::move(name)), root_(obs::Json::Object()) {
    root_.Set("bench", name_);
    root_.Set("schema_version", 1);
    root_.Set("rows", obs::Json::Array());
    // Per-config span attribution and config strings (see AddMachine
    // below). Always present; they stay empty for the pure-disk-model
    // benches, which run no fs ops.
    root_.Set("spans", obs::Json::Object());
    root_.Set("sim_config", obs::Json::Object());
  }

  obs::Json& root() { return root_; }

  void Set(std::string key, obs::Json value) {
    root_.Set(std::move(key), std::move(value));
  }

  void AddRow(obs::Json row) {
    root_.FindMutable("rows")->Push(std::move(row));
  }

  std::string FileName() const { return "BENCH_" + name_ + ".json"; }

  // Target path: $CFFS_BENCH_DIR/BENCH_<name>.json, or cwd when unset.
  std::string Path() const {
    const char* dir = std::getenv("CFFS_BENCH_DIR");
    if (dir != nullptr && dir[0] != '\0') {
      return std::string(dir) + "/" + FileName();
    }
    return FileName();
  }

  // Marks the run failed; the caller has printed why on stderr.
  void Fail() { failed_ = true; }
  bool failed() const { return failed_; }

  // Writes the report; a write error warns on stderr but never fails the
  // bench. Exits 1 once the report is out if the run was marked failed.
  void Write() const {
    const std::string path = Path();
    if (Status s = WriteTextFile(path, root_.Dump(2)); !s.ok()) {
      std::fprintf(stderr, "warning: %s\n", s.message().c_str());
    } else {
      std::printf("report: %s\n", path.c_str());
    }
    if (failed_) std::exit(1);
  }

 private:
  std::string name_;
  obs::Json root_;
  bool failed_ = false;
};

// Ends a bench that cannot build or run a machine: prints "<what>:
// <status>" on stderr and exits 1 without writing a report.
[[noreturn]] inline void Die(const std::string& what, const Status& status) {
  std::exit(Fail(what, status));
}

// A freshly formatted machine; Die naming `label` if it cannot be built.
inline std::unique_ptr<sim::SimEnv> NewMachine(const std::string& label,
                                               sim::FsKind kind,
                                               const sim::SimConfig& config) {
  Result<std::unique_ptr<sim::SimEnv>> env = sim::SimEnv::Create(kind, config);
  if (!env.ok()) Die(label + ": env", env.status());
  return std::move(*env);
}

// Records the configuration `label` ran as its sim::ConfigString under the
// report's top-level "sim_config" object.
inline void AddConfig(Report* report, const std::string& label,
                      sim::FsKind kind, const sim::SimConfig& config) {
  report->root().FindMutable("sim_config")->Set(
      label, sim::ConfigString(kind, config));
}

// Snapshots the finished machine `env`, with `mt` (the MtDriver's books on
// a multi-tenant run), and fails the report for every MetricsSnapshot
// invariant the snapshot breaks, naming `label` on stderr. Returns the
// snapshot.
inline stats::MetricsSnapshot Check(Report* report, const std::string& label,
                                    sim::SimEnv* env, mt::MtStats mt = {}) {
  stats::MetricsSnapshot snap = stats::Snapshot(*env);
  snap.mt = std::move(mt);
  for (const std::string& v : snap.CheckInvariants()) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", label.c_str(), v.c_str());
    report->Fail();
  }
  return snap;
}

// Check, then records the machine under `label`: its span attribution
// (per-op-type count, end-to-end p50/p99/p999 and exact per-phase totals
// of the ops since the env's last ResetStats — see src/obs/span.h) under
// "spans", and env->kind() and env->config() as a config string under
// "sim_config". Returns the snapshot.
inline stats::MetricsSnapshot AddMachine(Report* report,
                                         const std::string& label,
                                         sim::SimEnv* env,
                                         mt::MtStats mt = {}) {
  stats::MetricsSnapshot snap = Check(report, label, env, std::move(mt));
  report->root().FindMutable("spans")->Set(label, snap.spans.ToJson());
  AddConfig(report, label, env->kind(), env->config());
  return snap;
}

// A machine's snapshot as a report's "snapshots" member keeps it: its
// counters, without the spans AddMachine records under "spans" and without
// the sampler's time series (cffs_run --snapshot-out and the Chrome trace's
// counter track keep that).
inline obs::Json SnapshotJson(const stats::MetricsSnapshot& snap) {
  obs::Json j = snap.ToJson();
  j.Erase("spans");
  j.Erase("time_series");
  return j;
}

// One phase of a smallfile-style workload as a report row.
inline obs::Json PhaseJson(const workload::PhaseResult& p) {
  obs::Json j = obs::Json::Object();
  j.Set("phase", p.phase);
  j.Set("seconds", p.seconds);
  j.Set("files_per_sec", p.files_per_sec);
  j.Set("disk_reads", p.disk_reads);
  j.Set("disk_writes", p.disk_writes);
  j.Set("sync_metadata_writes", p.sync_metadata_writes);
  j.Set("group_reads", p.group_reads);
  obs::Json t = obs::Json::Object();
  t.Set("busy_s", p.disk_busy_s);
  t.Set("seek_s", p.disk_seek_s);
  t.Set("rotation_s", p.disk_rotation_s);
  t.Set("transfer_s", p.disk_transfer_s);
  t.Set("overhead_s", p.disk_overhead_s);
  j.Set("disk_time", std::move(t));
  if (p.flash) {
    obs::Json fl = obs::Json::Object();
    fl.Set("busy_s", p.flash_busy_s);
    fl.Set("overhead_s", p.flash_overhead_s);
    fl.Set("wait_s", p.flash_wait_s);
    fl.Set("read_s", p.flash_read_s);
    fl.Set("program_s", p.flash_program_s);
    fl.Set("erase_s", p.flash_erase_s);
    fl.Set("erases", p.flash_erases);
    j.Set("flash_time", std::move(fl));
  }
  return j;
}

// A finished smallfile run: its four phases and the machine's snapshot.
struct SmallFileRun {
  workload::SmallFileResult result;
  stats::MetricsSnapshot snap;
};

// Work done on a fresh machine before the phases; it may add members to
// every row through `tags`.
using Prepare = std::function<Status(sim::SimEnv* env, obs::Json* tags)>;

// The smallfile benches' runner. Builds a fresh `kind` machine on `config`,
// runs `prepare` (if any) and then the four phases of `params` on it, and
// hands the machine to AddMachine under `label`. Each phase must split its
// device busy time into its parts within 1 us (disk: seek + rotation +
// transfer + overhead; flash: overhead + wait + read + program + erase) or
// the report fails. When `tags` is an object, every phase also becomes a
// PhaseJson row with tags' members appended; fig7 passes null and writes
// its own rows. A machine that cannot be built or run, or whose syncer
// failed, ends the bench (Die).
inline SmallFileRun RunSmallFile(Report* report, const std::string& label,
                                 sim::FsKind kind,
                                 const sim::SimConfig& config,
                                 const workload::SmallFileParams& params,
                                 obs::Json tags, const Prepare& prepare = {}) {
  std::unique_ptr<sim::SimEnv> env = NewMachine(label, kind, config);
  if (prepare) {
    if (Status s = prepare(env.get(), &tags); !s.ok()) {
      Die(label + ": prepare", s);
    }
  }
  Result<workload::SmallFileResult> result =
      workload::RunSmallFile(env.get(), params);
  if (!result.ok()) Die(label + ": run", result.status());
  if (Status s = env->syncer_status(); !s.ok()) Die(label + ": syncer", s);

  for (const workload::PhaseResult& ph : result->phases) {
    const double busy = ph.flash ? ph.flash_busy_s : ph.disk_busy_s;
    const double parts =
        ph.flash ? ph.flash_overhead_s + ph.flash_wait_s + ph.flash_read_s +
                       ph.flash_program_s + ph.flash_erase_s
                 : ph.disk_seek_s + ph.disk_rotation_s + ph.disk_transfer_s +
                       ph.disk_overhead_s;
    if (std::abs(parts - busy) >= 1e-6) {
      std::fprintf(stderr,
                   "FAIL [%s %s]: %s %.9f s != busy %.9f s\n", label.c_str(),
                   ph.phase.c_str(),
                   ph.flash ? "overhead+wait+read+program+erase"
                            : "seek+rotation+transfer+overhead",
                   parts, busy);
      report->Fail();
    }
    if (!tags.is_object()) continue;
    obs::Json row = PhaseJson(ph);
    for (const auto& [key, value] : tags.members()) row.Set(key, value);
    report->AddRow(std::move(row));
  }
  return {std::move(*result), AddMachine(report, label, env.get())};
}

}  // namespace cffs::bench

#endif  // CFFS_BENCH_REPORT_H_
