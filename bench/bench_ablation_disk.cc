// Ablation: disk-level mechanisms. How much of each system's performance
// comes from the C-LOOK scheduler and the drive's prefetching segment
// cache? Runs the small-file benchmark with the scheduler degraded to FCFS
// and with on-board prefetch disabled.
#include <cstdio>

#include "bench/report.h"

using namespace cffs;

int main(int argc, char** argv) {
  workload::SmallFileParams params;
  params.num_files = 4000;
  params.num_dirs = 40;
  if (bench::ParseArgs(argc, argv).quick) {
    params.num_files = 1000;
    params.num_dirs = 10;
  }
  std::printf("Ablation: scheduler and on-board prefetch (%u files)\n",
              params.num_files);
  std::printf("%-14s %-22s %10s %10s %10s %10s\n", "config", "variant",
              "create/s", "read/s", "overwr/s", "delete/s");

  struct Variant {
    const char* name;
    disk::SchedulerPolicy sched;
    uint32_t prefetch;
  };
  const Variant variants[] = {
      {"C-LOOK + prefetch", disk::SchedulerPolicy::kCLook, 64},
      {"FCFS   + prefetch", disk::SchedulerPolicy::kFcfs, 64},
      {"C-LOOK, no prefetch", disk::SchedulerPolicy::kCLook, 0},
      {"SSTF   + prefetch", disk::SchedulerPolicy::kSstf, 64},
  };
  bench::Report report("ablation_disk");

  for (sim::FsKind kind : {sim::FsKind::kConventional, sim::FsKind::kCffs}) {
    for (const Variant& v : variants) {
      sim::SimConfig config;
      config.scheduler = v.sched;
      config.disk_spec.prefetch_sectors = v.prefetch;
      obs::Json tags = obs::Json::Object();
      tags.Set("config", sim::FsKindName(kind));
      tags.Set("variant", v.name);
      const bench::SmallFileRun run =
          bench::RunSmallFile(&report, sim::FsKindName(kind) + "/" + v.name,
                              kind, config, params, std::move(tags));
      const auto& phases = run.result.phases;
      std::printf("%-14s %-22s %10.1f %10.1f %10.1f %10.1f\n",
                  sim::FsKindName(kind).c_str(), v.name,
                  phases[0].files_per_sec, phases[1].files_per_sec,
                  phases[2].files_per_sec, phases[3].files_per_sec);
    }
  }
  report.Write();
  return 0;
}
