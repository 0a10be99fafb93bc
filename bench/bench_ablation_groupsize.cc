// Ablation: group extent size. Larger groups amortize positioning over
// more data per command, but raise the cost of fetching data the
// application never touches. Sweeps the extent size and reports the
// small-file phases for full C-FFS.
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
  std::printf("Ablation: C-FFS group size (%u files x %u B)\n",
              params.num_files, params.file_bytes);
  std::printf("%10s %10s %10s %10s %10s %12s\n", "group", "create/s",
              "read/s", "overwr/s", "delete/s", "group reads");
  bench::Report report("ablation_groupsize");

  for (uint16_t gb : {2, 4, 8, 16, 32, 64}) {
    sim::SimConfig config;
    config.group_blocks = gb;
    const bench::SmallFileRun run = bench::RunSmallFile(
        &report, "group" + std::to_string(gb), sim::FsKind::kCffs, config,
        params,
        obs::Json::Object().Set("group_blocks", static_cast<uint64_t>(gb)));
    const auto& phases = run.result.phases;
    uint64_t group_reads = 0;
    for (const auto& ph : phases) group_reads += ph.group_reads;
    std::printf("%8uKB %10.1f %10.1f %10.1f %10.1f %12llu\n",
                gb * fs::kBlockSize / 1024, phases[0].files_per_sec,
                phases[1].files_per_sec, phases[2].files_per_sec,
                phases[3].files_per_sec,
                static_cast<unsigned long long>(group_reads));
  }
  report.Write();
  return 0;
}
