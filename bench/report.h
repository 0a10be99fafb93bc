// Machine-readable bench reports.
//
// Every bench binary builds one Report and calls Write() at the end, which
// drops BENCH_<name>.json next to the binary's working directory (or into
// $CFFS_BENCH_DIR when set). A bench that finds its own results broken
// (Fail(); AddSpans does so for a span breakdown whose phase times miss
// an op's latency) still writes the report, then exits 1. The schema is
// shared across benches:
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
// Rows for the smallfile-style benches come from PhaseJson(), which carries
// the per-phase disk time breakdown so the report can answer "where did the
// time go" without re-running; full counter dumps use
// MetricsSnapshot::ToJson() (see src/stats/metrics.h).
//
// Header-only on purpose: bench binaries are one file each and already link
// cffs_obs via cffs_sim.
#ifndef CFFS_BENCH_REPORT_H_
#define CFFS_BENCH_REPORT_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/obs/json.h"
#include "src/sim/sim_env.h"
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
    // Per-config span attribution and config strings (see AddSpans
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

// Records the configuration `label` ran as its sim::ConfigString under the
// report's top-level "sim_config" object.
inline void AddConfig(Report* report, const std::string& label,
                      sim::FsKind kind, const sim::SimConfig& config) {
  report->root().FindMutable("sim_config")->Set(
      label, sim::ConfigString(kind, config));
}

// Records one configuration's cross-layer span attribution (per-op-type
// count, end-to-end p50/p99/p999 and exact per-phase totals — see
// src/obs/span.h) under the report's top-level "spans" object, and its
// config string under "sim_config", both keyed by `label`. The spans cover
// the ops since the env's last ResetStats, i.e. the measured section. An
// op whose phase times do not sum to its latency fails the bench.
inline void AddSpans(Report* report, const std::string& label,
                     sim::FsKind kind, const sim::SimConfig& config,
                     const obs::PhaseBreakdown& spans) {
  if (spans.invariant_violations > 0) {
    std::fprintf(stderr,
                 "FAIL [%s]: %llu ops whose phase times do not sum to their "
                 "latency (max residual %lld ns)\n",
                 label.c_str(),
                 static_cast<unsigned long long>(spans.invariant_violations),
                 static_cast<long long>(spans.max_residual_ns));
    report->Fail();
  }
  report->root().FindMutable("spans")->Set(label, spans.ToJson());
  AddConfig(report, label, kind, config);
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

}  // namespace cffs::bench

#endif  // CFFS_BENCH_REPORT_H_
