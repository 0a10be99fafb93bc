// Table 3: software-development application benchmarks. "Preliminary
// experience with software-development applications shows performance
// improvements ranging from 10-300 percent." Each app runs cold-cache on a
// pre-built synthetic source tree.
#include <cstdio>
#include <memory>

#include "bench/report.h"
#include "src/workload/devtree.h"

using namespace cffs;

namespace {

struct AppTimes {
  double copy = 0, archive = 0, unarchive = 0, compile = 0;
};

// Builds the source tree on `env`, then times each app from a cold cache.
Status RunApps(sim::SimEnv* env, bool quick, AppTimes* out) {
  workload::DevTreeParams tp;
  if (quick) {
    tp.num_dirs = 8;
    tp.sources_per_dir = 10;
    tp.headers_per_dir = 4;
  }
  ASSIGN_OR_RETURN(workload::DevTree tree,
                   workload::GenerateSourceTree(env, "/src", tp));

  RETURN_IF_ERROR(env->ColdCache());
  ASSIGN_OR_RETURN(auto copy, workload::RunCopy(env, tree, "/copy"));
  out->copy = copy.seconds;

  RETURN_IF_ERROR(env->ColdCache());
  ASSIGN_OR_RETURN(auto archive, workload::RunArchive(env, tree, "/src.tar"));
  out->archive = archive.seconds;

  RETURN_IF_ERROR(env->ColdCache());
  ASSIGN_OR_RETURN(auto unarchive,
                   workload::RunUnarchive(env, "/src.tar", "/unpacked"));
  out->unarchive = unarchive.seconds;

  RETURN_IF_ERROR(env->ColdCache());
  ASSIGN_OR_RETURN(auto compile, workload::RunCompile(env, tree));
  out->compile = compile.seconds;
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::ParseArgs(argc, argv).quick;
  std::printf("Table 3: software-development applications, elapsed simulated "
              "seconds (cold cache)\n");
  std::printf("%-14s %10s %10s %10s %10s\n", "config", "copy", "archive",
              "unarchive", "compile");

  bench::Report report("table3_apps");
  report.Set("quick", quick);

  AppTimes conv{}, cffs{};
  const sim::FsKind kinds[] = {sim::FsKind::kFfs, sim::FsKind::kConventional,
                               sim::FsKind::kEmbedOnly, sim::FsKind::kGroupOnly,
                               sim::FsKind::kCffs};
  for (sim::FsKind kind : kinds) {
    const std::string name = sim::FsKindName(kind);
    std::unique_ptr<sim::SimEnv> env =
        bench::NewMachine(name, kind, sim::SimConfig{});
    AppTimes t{};
    if (Status s = RunApps(env.get(), quick, &t); !s.ok()) {
      bench::Die(name + ": run", s);
    }
    bench::AddMachine(&report, name, env.get());
    std::printf("%-14s %10.2f %10.2f %10.2f %10.2f\n", name.c_str(), t.copy,
                t.archive, t.unarchive, t.compile);
    obs::Json row = obs::Json::Object();
    row.Set("config", name);
    row.Set("copy_s", t.copy);
    row.Set("archive_s", t.archive);
    row.Set("unarchive_s", t.unarchive);
    row.Set("compile_s", t.compile);
    report.AddRow(std::move(row));
    if (kind == sim::FsKind::kConventional) conv = t;
    if (kind == sim::FsKind::kCffs) cffs = t;
  }

  std::printf("\nC-FFS improvement over conventional (paper: 10-300%%):\n");
  auto imp = [](double c, double x) { return 100.0 * (c - x) / x; };
  std::printf("  copy %+.0f%%  archive %+.0f%%  unarchive %+.0f%%  "
              "compile %+.0f%%\n",
              imp(conv.copy, cffs.copy), imp(conv.archive, cffs.archive),
              imp(conv.unarchive, cffs.unarchive),
              imp(conv.compile, cffs.compile));
  obs::Json s = obs::Json::Object();
  s.Set("copy_pct", imp(conv.copy, cffs.copy));
  s.Set("archive_pct", imp(conv.archive, cffs.archive));
  s.Set("unarchive_pct", imp(conv.unarchive, cffs.unarchive));
  s.Set("compile_pct", imp(conv.compile, cffs.compile));
  report.Set("cffs_improvement_over_conventional", std::move(s));
  report.Write();
  return 0;
}
