// Figure 6 (paper §4.2): the small-file benchmark with the cost of
// maintaining metadata integrity removed. "We have not yet actually
// implemented soft updates in C-FFS, but rather emulate it by using delayed
// writes for all metadata updates [Ganger94]". Expectation: the
// conventional system's create/delete throughput rises sharply (it was
// paying 2-3 synchronous writes per operation), but grouping still wins
// the read and overwrite phases — embedded inodes and grouping complement
// integrity techniques rather than competing with them.
#include <cstdio>

#include "bench/report.h"

using namespace cffs;

int main(int argc, char** argv) {
  workload::SmallFileParams params;
  params.num_files = 10000;
  params.file_bytes = 1024;
  params.num_dirs = 100;
  const bool quick = bench::ParseArgs(argc, argv).quick;
  if (quick) {
    params.num_files = 2000;
    params.num_dirs = 20;
  }
  bench::Report report("fig6_softupdates");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("num_files", params.num_files);
    p.Set("file_bytes", params.file_bytes);
    p.Set("num_dirs", params.num_dirs);
    p.Set("metadata", "delayed");
    report.Set("params", std::move(p));
  }

  std::printf("Figure 6: small-file benchmark with soft updates emulated "
              "(all metadata writes delayed)\n");
  std::printf("%-14s %10s %10s %10s %10s\n", "config", "create/s", "read/s",
              "overwr/s", "delete/s");

  const sim::FsKind kinds[] = {
      sim::FsKind::kFfs, sim::FsKind::kConventional, sim::FsKind::kEmbedOnly,
      sim::FsKind::kGroupOnly, sim::FsKind::kCffs};
  for (sim::FsKind kind : kinds) {
    const std::string name = sim::FsKindName(kind);
    sim::SimConfig config;
    config.metadata = fs::MetadataPolicy::kDelayed;
    const bench::SmallFileRun run =
        bench::RunSmallFile(&report, name, kind, config, params,
                            obs::Json::Object().Set("config", name));
    const auto& phases = run.result.phases;
    std::printf("%-14s %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                phases[0].files_per_sec, phases[1].files_per_sec,
                phases[2].files_per_sec, phases[3].files_per_sec);
  }
  report.Write();
  return 0;
}
