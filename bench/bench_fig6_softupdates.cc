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
#include "src/workload/smallfile.h"

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
    sim::SimConfig config;
    config.metadata = fs::MetadataPolicy::kDelayed;
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
    std::printf("%-14s %10.1f %10.1f %10.1f %10.1f\n",
                sim::FsKindName(kind).c_str(),
                result->phases[0].files_per_sec,
                result->phases[1].files_per_sec,
                result->phases[2].files_per_sec,
                result->phases[3].files_per_sec);
    for (const auto& ph : result->phases) {
      obs::Json row = bench::PhaseJson(ph);
      row.Set("config", sim::FsKindName(kind));
      report.AddRow(std::move(row));
    }
    bench::AddSpans(&report, sim::FsKindName(kind), kind, config,
                    (*env)->spans()->breakdown());
  }
  report.Write();
  return 0;
}
