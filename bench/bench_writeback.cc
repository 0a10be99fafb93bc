// Delayed write-back benchmark for the async I/O subsystem (src/io).
//
// Not a figure from the paper, but the quantitative backing for its §3
// premise that delayed writes let grouped small files reach the disk in
// large clustered commands: the small-file workload runs on FFS and C-FFS
// under (a) the synchronous-metadata baseline and (b) delayed metadata
// driven by the background deadline syncer (100 ms cadence here — the
// classic 30 s update-daemon interval scaled down so multiple flush epochs
// land inside the benchmark's sub-second phases).
//
// The headline number is create-phase throughput: delayed C-FFS must beat
// synchronous C-FFS by at least 2x or the run exits nonzero. Every run
// must also keep all MetricsSnapshot invariants and a healthy syncer.
// The JSON report carries the per-phase disk-time breakdown plus the
// engine / syncer / readahead counters per configuration.
#include <cstdio>
#include <string>

#include "bench/report.h"

using namespace cffs;

namespace {

struct RunConfig {
  std::string name;
  sim::FsKind kind;
  bool delayed = false;  // delayed metadata + background syncer
};

// Runs one configuration and records it; returns its create-phase rate.
double RunOne(const RunConfig& rc, const workload::SmallFileParams& params,
              bench::Report* report) {
  sim::SimConfig config;
  if (rc.delayed) {
    config.metadata = fs::MetadataPolicy::kDelayed;
    config.syncer = true;
    config.syncer_interval = SimTime::Millis(100);
    config.syncer_max_age = SimTime::Millis(100);
  }
  const bench::SmallFileRun run =
      bench::RunSmallFile(report, rc.name, rc.kind, config, params,
                          obs::Json::Object().Set("config", rc.name));
  for (const workload::PhaseResult& p : run.result.phases) {
    std::printf("%-14s %-9s %9.3fs %10.0f files/s %7llu rd %7llu wr\n",
                rc.name.c_str(), p.phase.c_str(), p.seconds, p.files_per_sec,
                static_cast<unsigned long long>(p.disk_reads),
                static_cast<unsigned long long>(p.disk_writes));
  }

  // Cumulative io-subsystem counters for the whole four-phase run.
  obs::Json io = obs::Json::Object();
  io.Set("engine", stats::ToJson(run.snap.io_engine));
  io.Set("syncer", stats::ToJson(run.snap.syncer));
  io.Set("readahead", stats::ToJson(run.snap.readahead));
  obs::Json extras = obs::Json::Object();
  extras.Set("config", rc.name);
  extras.Set("io", std::move(io));
  report->root().FindMutable("io_stats")->Push(std::move(extras));

  if (rc.delayed && run.snap.syncer.flushes == 0) {
    std::fprintf(stderr, "FAIL [%s]: syncer never flushed — interval too "
                 "long for the workload?\n", rc.name.c_str());
    report->Fail();
  }
  return run.result.phase("create").files_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  workload::SmallFileParams params;
  params.num_files = 2000;
  params.num_dirs = 40;
  const bool quick = bench::ParseArgs(argc, argv).quick;
  if (quick) {
    params.num_files = 500;
    params.num_dirs = 10;
  }
  std::printf("write-back: %u files x %u B, syncer interval 100ms\n",
              params.num_files, params.file_bytes);

  bench::Report report("writeback");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("num_files", params.num_files);
    p.Set("file_bytes", params.file_bytes);
    p.Set("syncer_interval_ms", 100);
    report.Set("params", std::move(p));
  }
  report.Set("io_stats", obs::Json::Array());

  const RunConfig configs[] = {
      {"ffs+sync", sim::FsKind::kFfs, false},
      {"ffs+delayed", sim::FsKind::kFfs, true},
      {"c-ffs+sync", sim::FsKind::kCffs, false},
      {"c-ffs+delayed", sim::FsKind::kCffs, true},
  };
  double create_fps[4] = {};
  for (int i = 0; i < 4; ++i) {
    create_fps[i] = RunOne(configs[i], params, &report);
  }

  const double ffs_speedup = create_fps[0] > 0 ? create_fps[1] / create_fps[0] : 0;
  const double cffs_speedup = create_fps[2] > 0 ? create_fps[3] / create_fps[2] : 0;
  std::printf("create speedup (delayed/sync): ffs %.2fx, c-ffs %.2fx\n",
              ffs_speedup, cffs_speedup);
  obs::Json speedups = obs::Json::Object();
  speedups.Set("ffs_create", ffs_speedup);
  speedups.Set("cffs_create", cffs_speedup);
  report.Set("create_speedups", std::move(speedups));
  report.Write();

  // The acceptance gate: delayed write-back must at least double C-FFS
  // small-file create throughput over the synchronous baseline.
  if (cffs_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: delayed c-ffs create speedup %.2fx < 2x gate\n",
                 cffs_speedup);
    return 1;
  }
  return 0;
}
