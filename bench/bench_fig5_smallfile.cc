// Figure 5 (paper §4.2): small-file microbenchmark throughput for the four
// configurations — conventional, embedded inodes only, explicit grouping
// only, and full C-FFS — plus our separate static-inode-table FFS baseline.
// 10000 1 KB files, synchronous metadata policy.
//
// Shape targets (paper): C-FFS read/overwrite ~5-7x conventional; delete
// >= 2.5x with embedded inodes; and the abstract's "order of magnitude
// fewer disk accesses": "The improvement comes directly from reducing the
// number of disk accesses required by an order of magnitude". After the
// throughput table it prints the disk requests per phase of every
// configuration and C-FFS's speedup and request ratio over conventional.
//
// Emits BENCH_fig5_smallfile.json: one row per (config, phase) with the
// disk time breakdown, a full end-of-run MetricsSnapshot per config (its
// span breakdown is the report's spans.<config>) and cffs_vs_conventional.
// Exits 1 if a row's busy time does not split into its parts or a config
// fails its counter invariants (bench::RunSmallFile).
#include <cstdio>
#include <vector>

#include "bench/report.h"

using namespace cffs;

int main(int argc, char** argv) {
  workload::SmallFileParams params;
  params.num_files = 10000;
  params.file_bytes = 1024;
  params.num_dirs = 100;
  const auto [quick, verbose] = bench::ParseArgs(argc, argv);
  if (quick) {  // smaller run for CI-style smoke usage
    params.num_files = 2000;
    params.num_dirs = 20;
  }

  std::printf("Figure 5: small-file benchmark (%u files x %u B, %u dirs, "
              "synchronous metadata)\n",
              params.num_files, params.file_bytes, params.num_dirs);
  std::printf("%-14s %10s %10s %10s %10s\n", "config", "create/s", "read/s",
              "overwr/s", "delete/s");

  bench::Report report("fig5_smallfile");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("num_files", params.num_files);
    p.Set("file_bytes", params.file_bytes);
    p.Set("num_dirs", params.num_dirs);
    p.Set("metadata", "synchronous");
    report.Set("params", std::move(p));
  }
  obs::Json snapshots = obs::Json::Object();

  const sim::FsKind kinds[] = {
      sim::FsKind::kFfs, sim::FsKind::kConventional, sim::FsKind::kEmbedOnly,
      sim::FsKind::kGroupOnly, sim::FsKind::kCffs};
  std::vector<workload::SmallFileResult> results;

  for (sim::FsKind kind : kinds) {
    const std::string name = sim::FsKindName(kind);
    bench::SmallFileRun run =
        bench::RunSmallFile(&report, name, kind, sim::SimConfig{}, params,
                            obs::Json::Object().Set("config", name));
    const auto& phases = run.result.phases;
    std::printf("%-14s %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                phases[0].files_per_sec, phases[1].files_per_sec,
                phases[2].files_per_sec, phases[3].files_per_sec);
    if (verbose) {
      for (const auto& ph : phases) {
        std::printf("    %-10s reads=%-7llu writes=%-7llu syncs=%-7llu "
                    "groupreads=%llu\n",
                    ph.phase.c_str(),
                    static_cast<unsigned long long>(ph.disk_reads),
                    static_cast<unsigned long long>(ph.disk_writes),
                    static_cast<unsigned long long>(ph.sync_metadata_writes),
                    static_cast<unsigned long long>(ph.group_reads));
        std::printf("    %-10s disk: busy=%.3fs (seek=%.3f rot=%.3f "
                    "xfer=%.3f ovh=%.3f)\n",
                    "", ph.disk_busy_s, ph.disk_seek_s, ph.disk_rotation_s,
                    ph.disk_transfer_s, ph.disk_overhead_s);
      }
    }
    snapshots.Set(name, bench::SnapshotJson(run.snap));
    results.push_back(std::move(run.result));
  }
  report.Set("snapshots", std::move(snapshots));

  // C-FFS (kinds[4]) over conventional (kinds[1]), phase by phase.
  const auto& conv = results[1].phases;
  const auto& cffs = results[4].phases;
  auto requests = [](const workload::PhaseResult& p) {
    return static_cast<double>(p.disk_reads + p.disk_writes);
  };
  auto request_ratio = [&](size_t i) {
    return requests(conv[i]) / (requests(cffs[i]) > 0 ? requests(cffs[i]) : 1);
  };
  obs::Json speedups = obs::Json::Array();
  for (size_t i = 0; i < conv.size(); ++i) {
    obs::Json s = obs::Json::Object();
    s.Set("phase", conv[i].phase);
    s.Set("speedup", cffs[i].files_per_sec / conv[i].files_per_sec);
    s.Set("request_ratio", request_ratio(i));
    speedups.Push(std::move(s));
  }
  report.Set("cffs_vs_conventional", std::move(speedups));
  report.Write();

  std::printf("\nDisk requests per phase (%u files x %u B)\n",
              params.num_files, params.file_bytes);
  std::printf("%-14s %22s %22s %22s %22s\n", "config", "create (R+W)",
              "read (R+W)", "overwrite (R+W)", "delete (R+W)");
  for (size_t k = 0; k < results.size(); ++k) {
    std::printf("%-14s", sim::FsKindName(kinds[k]).c_str());
    for (const auto& ph : results[k].phases) {
      char cell[32];
      std::snprintf(cell, sizeof cell, "%llu+%llu",
                    static_cast<unsigned long long>(ph.disk_reads),
                    static_cast<unsigned long long>(ph.disk_writes));
      std::printf(" %22s", cell);
    }
    std::printf("\n");
  }
  std::printf("\nC-FFS vs conventional:\n");
  std::printf("%-10s %12s %12s %16s\n", "phase", "speedup", "req. ratio",
              "sync writes c/f");
  for (size_t i = 0; i < conv.size(); ++i) {
    std::printf("%-10s %11.2fx %11.1fx %10llu/%llu\n", conv[i].phase.c_str(),
                cffs[i].files_per_sec / conv[i].files_per_sec,
                request_ratio(i),
                static_cast<unsigned long long>(conv[i].sync_metadata_writes),
                static_cast<unsigned long long>(cffs[i].sync_metadata_writes));
  }
  return 0;
}
