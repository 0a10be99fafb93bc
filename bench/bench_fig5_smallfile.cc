// Figure 5 (paper §4.2): small-file microbenchmark throughput for the four
// configurations — conventional, embedded inodes only, explicit grouping
// only, and full C-FFS — plus our separate static-inode-table FFS baseline.
// 10000 1 KB files, synchronous metadata policy.
//
// Shape targets (paper): C-FFS read/overwrite ~5-7x conventional; delete
// >= 2.5x with embedded inodes; an order of magnitude fewer disk requests.
//
// Emits BENCH_fig5_smallfile.json: one row per (config, phase) with the
// disk time breakdown, plus a full end-of-run MetricsSnapshot per config
// (its span breakdown is the report's spans.<config>).
// Exits 1 if a row's seek + rotation + transfer + overhead differs from its
// busy time by 1 us or more, or a snapshot fails its counter invariants.
#include <cmath>
#include <cstdio>

#include "bench/report.h"
#include "src/stats/collect.h"
#include "src/workload/smallfile.h"

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

  for (sim::FsKind kind : kinds) {
    sim::SimConfig config;
    auto env = sim::SimEnv::Create(kind, config);
    if (!env.ok()) {
      std::fprintf(stderr, "env: %s\n", env.status().ToString().c_str());
      return 1;
    }
    auto result = workload::RunSmallFile(env->get(), params);
    if (!result.ok()) {
      std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
      return 1;
    }
    double rates[4];
    for (int i = 0; i < 4; ++i) rates[i] = result->phases[i].files_per_sec;
    std::printf("%-14s %10.1f %10.1f %10.1f %10.1f\n",
                sim::FsKindName(kind).c_str(), rates[0], rates[1], rates[2],
                rates[3]);
    if (verbose) {
      for (const auto& ph : result->phases) {
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
    for (const auto& ph : result->phases) {
      const double parts = ph.disk_seek_s + ph.disk_rotation_s +
                           ph.disk_transfer_s + ph.disk_overhead_s;
      if (std::abs(parts - ph.disk_busy_s) >= 1e-6) {
        std::fprintf(stderr,
                     "%s %s: seek+rotation+transfer+overhead %.9f s != "
                     "busy %.9f s\n",
                     sim::FsKindName(kind).c_str(), ph.phase.c_str(), parts,
                     ph.disk_busy_s);
        report.Fail();
      }
      obs::Json row = bench::PhaseJson(ph);
      row.Set("config", sim::FsKindName(kind));
      report.AddRow(std::move(row));
    }
    const stats::MetricsSnapshot snap = stats::Snapshot(**env);
    for (const std::string& v : snap.CheckInvariants()) {
      std::fprintf(stderr, "invariant violated [%s]: %s\n",
                   sim::FsKindName(kind).c_str(), v.c_str());
      report.Fail();
    }
    obs::Json snap_json = snap.ToJson();
    snap_json.Erase("spans");  // recorded once, under spans.<config>
    snapshots.Set(sim::FsKindName(kind), std::move(snap_json));
    bench::AddSpans(&report, sim::FsKindName(kind), kind, config,
                    (*env)->spans()->breakdown());
  }
  report.Set("snapshots", std::move(snapshots));
  report.Write();

  std::printf("\nspeedup of c-ffs over conventional is printed by "
              "bench_diskaccesses along with request counts\n");
  return 0;
}
