// M-disk scaling benchmark for the sharded namespace router (src/shard).
//
// Not a figure from the paper, but its scale-out extrapolation: embedded
// inodes and explicit grouping make each small-file op cheap on ONE disk,
// and the group-aware router (whole directories = whole embedded-inode
// groups per shard) is what lets M disks absorb M directories' traffic
// concurrently. The sweep runs the SAME total op count against 1 -> 2 -> 4
// (-> 8, full mode) shards, postmark and devtree workloads, and reports
//
//   speedup(M) = elapsed(1) / elapsed(M)   at equal total work,
//
// where elapsed is the MAX over shard clocks (the disks overlap in
// simulated time; see src/shard/shard_stats.h). The gate: C-FFS postmark
// small-file throughput must scale >= 3x from 1 to 4 shards — grouping
// keeps each directory's group on one disk, so adding disks must add
// nearly-linear small-file bandwidth.
//
// A second table holds work and shard count fixed (4 shards) and sweeps
// the cross-shard rename share of postmark ops (0 / 10 / 25%): each
// cross-shard rename runs the two-phase journal protocol, whose five
// ordered syncs serialize two shards' clocks — the measured "rename tax"
// on aggregate throughput.
//
// Full mode pushes >= 10^6 file operations through the sweep (8 runs x
// 131072 ops); --quick trims to CI size and stops at 4 shards, which is
// the checked-in bench/baselines curve.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/report.h"
#include "src/shard/driver.h"
#include "src/shard/router.h"

using namespace cffs;

namespace {

sim::SimConfig ShardConfig(uint32_t shards) {
  sim::SimConfig config;
  config.deterministic_mtime = true;
  config.shards = shards;
  return config;
}

// Runs one sweep point on a fresh router of `shards` C-FFS shards, records
// its config under `label` and checks every shard's machine.
shard::ShardDriverStats RunOne(bench::Report* report, const std::string& label,
                               uint32_t shards, bool devtree,
                               uint32_t rename_pct, uint32_t clients,
                               uint64_t total_ops, uint32_t create_pct = 40,
                               uint32_t read_pct = 40) {
  auto router =
      shard::ShardRouter::Create(sim::FsKind::kCffs, ShardConfig(shards));
  if (!router.ok()) bench::Die(label + ": router", router.status());
  shard::ShardDriverParams params;
  params.clients = clients;
  params.ops_per_client = std::max<uint64_t>(4, total_ops / clients);
  // Enough directories that placement hashing balances them across the
  // widest sweep point; each directory is one embedded-inode group.
  params.dirs_per_client = 4;
  params.create_pct = create_pct;
  params.read_pct = read_pct;
  params.rename_pct = rename_pct;
  params.devtree = devtree;
  shard::ShardDriver driver(router->get(), params);
  if (Status s = driver.Run(); !s.ok()) bench::Die(label + ": run", s);
  shard::ShardDriverStats st = driver.TakeStats();
  // Every run does work, and the shards split it exactly, so no shard
  // serves more ops than the run.
  uint64_t shard_ops = 0;
  for (const shard::ShardOpStats& s : st.per_shard) shard_ops += s.ops;
  if (shard_ops != st.mt.ops_serviced || shard_ops == 0) {
    std::fprintf(stderr,
                 "FAIL [%s]: shards served %llu ops, driver serviced %llu "
                 "(must be equal and > 0)\n",
                 label.c_str(), static_cast<unsigned long long>(shard_ops),
                 static_cast<unsigned long long>(st.mt.ops_serviced));
    report->Fail();
  }
  for (uint32_t i = 0; i < (*router)->shards(); ++i) {
    bench::Check(report, label + "/shard" + std::to_string(i),
                 (*router)->env(i));
  }
  bench::AddConfig(report, label, sim::FsKind::kCffs, ShardConfig(shards));
  return st;
}

double OpsPerSec(const shard::ShardDriverStats& st) {
  return st.elapsed_ns > 0 ? static_cast<double>(st.mt.ops_serviced) /
                                 (static_cast<double>(st.elapsed_ns) / 1e9)
                           : 0;
}

obs::Json Row(const std::string& mode, uint32_t shards,
              const shard::ShardDriverStats& st, double speedup) {
  obs::Json row = obs::Json::Object();
  row.Set("mode", mode);
  row.Set("shards", shards);
  row.Set("ops", st.mt.ops_serviced);
  row.Set("elapsed_s", static_cast<double>(st.elapsed_ns) / 1e9);
  row.Set("ops_per_sec", OpsPerSec(st));
  row.Set("speedup", speedup);
  row.Set("p99_ns", st.mt.latency.p99().nanos());
  row.Set("renames_cross", st.renames_cross);
  uint64_t min_ops = st.mt.ops_serviced, max_ops = 0;
  for (const shard::ShardOpStats& s : st.per_shard) {
    min_ops = std::min(min_ops, s.ops);
    max_ops = std::max(max_ops, s.ops);
  }
  row.Set("min_shard_ops", min_ops);
  row.Set("max_shard_ops", max_ops);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::ParseArgs(argc, argv).quick;
  const uint32_t clients = quick ? 32 : 64;
  const uint64_t total_ops = quick ? 2048 : 131072;
  const uint32_t counts_full[] = {1, 2, 4, 8};
  const uint32_t n_counts = quick ? 3 : 4;  // quick stops at 4 shards

  bench::Report report("shard");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("fs", "c-ffs");
    p.Set("clients", clients);
    p.Set("total_ops_per_run", total_ops);
    p.Set("placement", "jump");
    report.Set("params", std::move(p));
  }

  std::printf("%-9s %7s %9s %11s %12s %8s %7s  balance\n", "mode", "shards",
              "ops", "elapsed_s", "ops_per_sec", "speedup", "xren");
  double postmark_speedup4 = 0;
  obs::Json speedups = obs::Json::Object();
  for (const char* mode : {"postmark", "devtree"}) {
    const bool devtree = std::strcmp(mode, "devtree") == 0;
    double elapsed1 = 0;
    for (uint32_t i = 0; i < n_counts; ++i) {
      const uint32_t shards = counts_full[i];
      const shard::ShardDriverStats st =
          RunOne(&report, std::string(mode) + "/" + std::to_string(shards),
                 shards, devtree, /*rename_pct=*/0, clients, total_ops);
      const double elapsed = static_cast<double>(st.elapsed_ns) / 1e9;
      if (shards == 1) elapsed1 = elapsed;
      const double speedup = elapsed > 0 ? elapsed1 / elapsed : 0;
      std::printf("%-9s %7u %9llu %11.3f %12.1f %7.2fx %7llu  %llu..%llu\n",
                  mode, shards,
                  static_cast<unsigned long long>(st.mt.ops_serviced),
                  elapsed, OpsPerSec(st), speedup,
                  static_cast<unsigned long long>(st.renames_cross),
                  static_cast<unsigned long long>(
                      std::min_element(st.per_shard.begin(),
                                       st.per_shard.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.ops < b.ops;
                                       })
                          ->ops),
                  static_cast<unsigned long long>(
                      std::max_element(st.per_shard.begin(),
                                       st.per_shard.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.ops < b.ops;
                                       })
                          ->ops));
      report.AddRow(Row(mode, shards, st, speedup));
      if (shards == 4) {
        speedups.Set(std::string(mode) + "_4shard_speedup", speedup);
        if (!devtree) postmark_speedup4 = speedup;
      }
    }
  }
  report.Set("scaling_speedups", std::move(speedups));

  // --- rename tax: fixed work, fixed 4 shards, growing cross-shard share --
  std::printf("\nrename tax at 4 shards (two-phase protocol per cross-shard "
              "rename):\n");
  std::printf("%-12s %9s %12s %9s\n", "rename_pct", "xren", "ops_per_sec",
              "rel");
  obs::Json tax = obs::Json::Array();
  double base_tput = 0;
  for (uint32_t pct : {0u, 10u, 25u}) {
    // Same create/read mix across the tax sweep, sized so the largest
    // rename share still fits in the 100% budget (remainder = deletes).
    const shard::ShardDriverStats st =
        RunOne(&report, "rename_tax/" + std::to_string(pct), /*shards=*/4,
               /*devtree=*/false, pct, clients, total_ops,
               /*create_pct=*/35, /*read_pct=*/35);
    const double tput = OpsPerSec(st);
    if (pct == 0) base_tput = tput;
    std::printf("%-12u %9llu %12.1f %8.2f%%\n", pct,
                static_cast<unsigned long long>(st.renames_cross), tput,
                base_tput > 0 ? 100.0 * tput / base_tput : 0);
    obs::Json row = obs::Json::Object();
    row.Set("rename_pct", pct);
    row.Set("renames_cross", st.renames_cross);
    row.Set("ops_per_sec", tput);
    tax.Push(std::move(row));
  }
  report.Set("rename_tax", std::move(tax));
  report.Write();

  // Gate: C-FFS postmark small-file throughput must scale >= 3x from 1 to
  // 4 shards — the group-aware placement must turn extra disks into
  // near-linear extra small-file bandwidth.
  if (postmark_speedup4 < 3.0) {
    std::fprintf(stderr,
                 "FAIL: postmark 1->4 shard speedup %.2fx < 3.0x\n",
                 postmark_speedup4);
    return 1;
  }
  return 0;
}
