// §4.3 file-system aging: age the file system to a range of utilizations
// with Herrin-style create/delete churn, then measure small-file create and
// read throughput on the fragmented disk. The question: does grouping
// survive fragmentation?
#include <cstdio>

#include "bench/report.h"
#include "src/workload/aging.h"

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
      char label[64];
      std::snprintf(label, sizeof label, "%s/util%.0f",
                    sim::FsKindName(kind).c_str(), 100 * util);

      workload::AgingParams ap;
      ap.operations = quick ? 3000 : 15000;
      ap.target_utilization = util;
      ap.max_file_bytes = 128 * 1024;
      workload::AgingResult aged;
      auto age = [&](sim::SimEnv* env, obs::Json* tags) -> Status {
        ASSIGN_OR_RETURN(aged, workload::AgeFileSystem(env, ap));
        tags->Set("final_utilization", aged.final_utilization);
        tags->Set("aging_ops", aged.creates + aged.deletes);
        return OkStatus();
      };

      workload::SmallFileParams sp;
      sp.num_files = quick ? 1000 : 4000;
      sp.num_dirs = quick ? 10 : 40;
      obs::Json tags = obs::Json::Object();
      tags.Set("config", sim::FsKindName(kind));
      tags.Set("target_utilization", util);
      const bench::SmallFileRun run = bench::RunSmallFile(
          &report, label, kind, config, sp, std::move(tags), age);
      const auto& phases = run.result.phases;
      std::printf("%4.0f%%  %-14s %10.1f %10.1f %10.1f %10.1f %7llu\n",
                  100 * aged.final_utilization, sim::FsKindName(kind).c_str(),
                  phases[0].files_per_sec, phases[1].files_per_sec,
                  phases[2].files_per_sec, phases[3].files_per_sec,
                  static_cast<unsigned long long>(aged.creates +
                                                  aged.deletes));
    }
  }
  report.Write();
  return 0;
}
