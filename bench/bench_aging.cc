// §4.3 file-system aging: age the file system to a range of utilizations
// with Herrin-style create/delete churn, then measure small-file create and
// read throughput on the fragmented disk. The question: does grouping
// survive fragmentation?
#include <cstdio>

#include "bench/report.h"
#include "src/workload/aging.h"
#include "src/workload/smallfile.h"

using namespace cffs;

int main(int argc, char** argv) {
  const bool quick = bench::ParseArgs(argc, argv).quick;
  std::printf("File-system aging: post-aging small-file throughput\n");
  std::printf("%5s  %-14s %10s %10s %10s %10s %7s\n", "util", "config",
              "create/s", "read/s", "overwr/s", "delete/s", "ops");
  bench::Report report("aging");
  report.Set("quick", quick);

  const double utils[] = {0.25, 0.50, 0.75};
  for (double util : utils) {
    for (sim::FsKind kind : {sim::FsKind::kConventional, sim::FsKind::kCffs}) {
      sim::SimConfig config;
      // A 256 MB disk with the ST31200's timing: aging to a target
      // utilization fills the disk, so a smaller one keeps runs short
      // without changing the layout effects under study.
      config.disk_spec = disk::TestDisk(2048, 4, 64);
      auto env_or = sim::SimEnv::Create(kind, config);
      if (!env_or.ok()) return 1;
      sim::SimEnv* env = env_or->get();

      workload::AgingParams ap;
      ap.operations = quick ? 3000 : 15000;
      ap.target_utilization = util;
      ap.max_file_bytes = 128 * 1024;
      auto aged = workload::AgeFileSystem(env, ap);
      if (!aged.ok()) {
        std::fprintf(stderr, "aging: %s\n", aged.status().ToString().c_str());
        return 1;
      }

      workload::SmallFileParams sp;
      sp.num_files = quick ? 1000 : 4000;
      sp.num_dirs = quick ? 10 : 40;
      auto result = workload::RunSmallFile(env, sp);
      if (!result.ok()) {
        std::fprintf(stderr, "smallfile: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("%4.0f%%  %-14s %10.1f %10.1f %10.1f %10.1f %7llu\n",
                  100 * aged->final_utilization, sim::FsKindName(kind).c_str(),
                  result->phases[0].files_per_sec,
                  result->phases[1].files_per_sec,
                  result->phases[2].files_per_sec,
                  result->phases[3].files_per_sec,
                  static_cast<unsigned long long>(aged->creates +
                                                  aged->deletes));
      for (const auto& ph : result->phases) {
        obs::Json row = bench::PhaseJson(ph);
        row.Set("config", sim::FsKindName(kind));
        row.Set("target_utilization", util);
        row.Set("final_utilization", aged->final_utilization);
        row.Set("aging_ops", aged->creates + aged->deletes);
        report.AddRow(std::move(row));
      }
      char label[64];
      std::snprintf(label, sizeof label, "%s/util%.0f",
                    sim::FsKindName(kind).c_str(), 100 * util);
      bench::AddSpans(&report, label, kind, config, env->spans()->breakdown());
    }
  }
  report.Write();
  return 0;
}
