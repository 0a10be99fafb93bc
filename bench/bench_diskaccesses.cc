// The "order of magnitude fewer disk accesses" claim: disk request counts
// per phase for each configuration, plus C-FFS vs conventional speedups.
// "The improvement comes directly from reducing the number of disk accesses
// required by an order of magnitude" (abstract).
#include <cstdio>

#include "bench/report.h"
#include "src/workload/smallfile.h"

using namespace cffs;

int main(int argc, char** argv) {
  workload::SmallFileParams params;
  params.num_files = 10000;
  params.file_bytes = 1024;
  params.num_dirs = 100;
  if (bench::ParseArgs(argc, argv).quick) {
    params.num_files = 2000;
    params.num_dirs = 20;
  }

  std::printf("Disk requests per phase (%u files x %u B)\n", params.num_files,
              params.file_bytes);
  std::printf("%-14s %22s %22s %22s %22s\n", "config", "create (R+W)",
              "read (R+W)", "overwrite (R+W)", "delete (R+W)");

  bench::Report report("diskaccesses");
  workload::SmallFileResult conv, cffs;
  const sim::FsKind kinds[] = {
      sim::FsKind::kFfs, sim::FsKind::kConventional, sim::FsKind::kEmbedOnly,
      sim::FsKind::kGroupOnly, sim::FsKind::kCffs};
  for (sim::FsKind kind : kinds) {
    sim::SimConfig config;
    auto env = sim::SimEnv::Create(kind, config);
    if (!env.ok()) return 1;
    auto result = workload::RunSmallFile(env->get(), params);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s", sim::FsKindName(kind).c_str());
    for (const auto& ph : result->phases) {
      char cell[32];
      std::snprintf(cell, sizeof cell, "%llu+%llu",
                    static_cast<unsigned long long>(ph.disk_reads),
                    static_cast<unsigned long long>(ph.disk_writes));
      std::printf(" %22s", cell);
    }
    std::printf("\n");
    for (const auto& ph : result->phases) {
      obs::Json row = bench::PhaseJson(ph);
      row.Set("config", sim::FsKindName(kind));
      report.AddRow(std::move(row));
    }
    bench::AddSpans(&report, sim::FsKindName(kind), kind, config,
                    (*env)->spans()->breakdown());
    if (kind == sim::FsKind::kConventional) conv = *result;
    if (kind == sim::FsKind::kCffs) cffs = *result;
  }

  std::printf("\nC-FFS vs conventional:\n");
  std::printf("%-10s %12s %12s %16s\n", "phase", "speedup", "req. ratio",
              "sync writes c/f");
  obs::Json speedups = obs::Json::Array();
  for (size_t i = 0; i < conv.phases.size(); ++i) {
    const auto& c = conv.phases[i];
    const auto& x = cffs.phases[i];
    const double creq = static_cast<double>(c.disk_reads + c.disk_writes);
    const double xreq = static_cast<double>(x.disk_reads + x.disk_writes);
    std::printf("%-10s %11.2fx %11.1fx %10llu/%llu\n", c.phase.c_str(),
                x.files_per_sec / c.files_per_sec, creq / (xreq > 0 ? xreq : 1),
                static_cast<unsigned long long>(c.sync_metadata_writes),
                static_cast<unsigned long long>(x.sync_metadata_writes));
    obs::Json s = obs::Json::Object();
    s.Set("phase", c.phase);
    s.Set("speedup", x.files_per_sec / c.files_per_sec);
    s.Set("request_ratio", creq / (xreq > 0 ? xreq : 1));
    speedups.Push(std::move(s));
  }
  report.Set("cffs_vs_conventional", std::move(speedups));
  report.Write();
  return 0;
}
