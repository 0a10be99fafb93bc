// Throughput vs file size: how the grouping advantage decays as files grow
// toward (and past) the group size, and the embedded-inode advantage
// persists for metadata-dominated sizes. (Reconstructed figure — the
// supplied text does not preserve the original's number; see DESIGN.md.)
#include <cstdio>

#include "bench/report.h"

using namespace cffs;

int main(int argc, char** argv) {
  const bool quick = bench::ParseArgs(argc, argv).quick;
  bench::Report report("fig7_filesize");
  report.Set("quick", quick);
  std::printf("Figure 7: small-file read/create throughput vs file size "
              "(conventional vs C-FFS)\n");
  std::printf("%8s %14s %14s %9s %14s %14s %9s\n", "size", "conv read/s",
              "cffs read/s", "ratio", "conv crt/s", "cffs crt/s", "ratio");

  const uint32_t sizes_kb[] = {1, 2, 4, 8, 16, 32, 64};
  for (uint32_t kb : sizes_kb) {
    workload::SmallFileParams params;
    params.file_bytes = kb * 1024;
    // Keep total data roughly constant (~10 MB when quick, 40 MB full).
    const uint32_t total_kb = quick ? 10 * 1024 : 40 * 1024;
    params.num_files = std::max<uint32_t>(total_kb / kb, 64);
    params.num_dirs = std::max<uint32_t>(params.num_files / 100, 1);

    double read_rate[2] = {0, 0}, create_rate[2] = {0, 0};
    const sim::FsKind kinds[] = {sim::FsKind::kConventional, sim::FsKind::kCffs};
    for (int k = 0; k < 2; ++k) {
      const bench::SmallFileRun run = bench::RunSmallFile(
          &report, sim::FsKindName(kinds[k]) + "/" + std::to_string(kb) + "K",
          kinds[k], sim::SimConfig{}, params, /*tags=*/obs::Json());
      create_rate[k] = run.result.phase("create").files_per_sec;
      read_rate[k] = run.result.phase("read").files_per_sec;
    }
    std::printf("%7uK %14.1f %14.1f %8.2fx %14.1f %14.1f %8.2fx\n", kb,
                read_rate[0], read_rate[1], read_rate[1] / read_rate[0],
                create_rate[0], create_rate[1],
                create_rate[1] / create_rate[0]);
    obs::Json row = obs::Json::Object();
    row.Set("file_kb", static_cast<uint64_t>(kb));
    row.Set("num_files", params.num_files);
    row.Set("conventional_read_per_sec", read_rate[0]);
    row.Set("cffs_read_per_sec", read_rate[1]);
    row.Set("read_speedup", read_rate[1] / read_rate[0]);
    row.Set("conventional_create_per_sec", create_rate[0]);
    row.Set("cffs_create_per_sec", create_rate[1]);
    row.Set("create_speedup", create_rate[1] / create_rate[0]);
    report.AddRow(std::move(row));
  }
  report.Write();
  return 0;
}
