// PostMark-style trace benchmark: the classic "internet service provider"
// small-file mix (mail, netnews, web commerce) replayed on every
// configuration. Not a figure from the paper, but exactly the class of
// workload its introduction motivates.
#include <cstdio>
#include <memory>

#include "bench/report.h"
#include "src/workload/trace.h"

using namespace cffs;

int main(int argc, char** argv) {
  workload::PostmarkParams params;
  if (bench::ParseArgs(argc, argv).quick) {
    params.initial_files = 200;
    params.transactions = 600;
  }
  const workload::Trace trace = workload::GeneratePostmark(params);
  std::printf("PostMark-style trace: %u initial files, %u transactions "
              "(%zu ops)\n",
              params.initial_files, params.transactions, trace.size());
  std::printf("%-14s %10s %10s %12s %12s\n", "config", "seconds", "ops/s",
              "disk reqs", "failed ops");
  bench::Report report("postmark");
  {
    obs::Json p = obs::Json::Object();
    p.Set("initial_files", params.initial_files);
    p.Set("transactions", params.transactions);
    p.Set("trace_ops", static_cast<uint64_t>(trace.size()));
    report.Set("params", std::move(p));
  }

  const sim::FsKind kinds[] = {
      sim::FsKind::kFfs, sim::FsKind::kConventional, sim::FsKind::kEmbedOnly,
      sim::FsKind::kGroupOnly, sim::FsKind::kCffs};
  for (sim::FsKind kind : kinds) {
    const std::string name = sim::FsKindName(kind);
    std::unique_ptr<sim::SimEnv> env =
        bench::NewMachine(name, kind, sim::SimConfig{});
    auto stats = workload::ReplayTrace(env.get(), trace);
    if (!stats.ok()) bench::Die(name + ": run", stats.status());
    std::printf("%-14s %10.2f %10.1f %12llu %12llu\n", name.c_str(),
                stats->seconds, stats->ops_applied / stats->seconds,
                static_cast<unsigned long long>(stats->disk_requests),
                static_cast<unsigned long long>(stats->ops_failed));
    obs::Json row = obs::Json::Object();
    row.Set("config", name);
    row.Set("seconds", stats->seconds);
    row.Set("ops_per_sec", stats->ops_applied / stats->seconds);
    row.Set("disk_requests", stats->disk_requests);
    row.Set("ops_failed", stats->ops_failed);
    report.AddRow(std::move(row));
    bench::AddMachine(&report, name, env.get());
  }
  report.Write();
  return 0;
}
