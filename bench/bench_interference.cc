// Interference ablation (paper §2): locality-based placement helps "only
// when no other activity moves the disk arm between related requests";
// grouping fetches a whole unit per command and keeps its benefit when a
// competing stream drags the arm away between foreground reads.
#include <cstdio>
#include <memory>

#include "bench/report.h"
#include "src/workload/interference.h"

using namespace cffs;

int main(int argc, char** argv) {
  workload::InterferenceParams params;
  if (bench::ParseArgs(argc, argv).quick) params.foreground_files = 300;
  std::printf("Interference: foreground small-file reads with a competing "
              "stream (%u files)\n",
              params.foreground_files);
  std::printf("%-14s %12s %12s  %s\n", "config", "disturb", "files/s",
              "per-read latency");
  bench::Report report("interference");
  {
    obs::Json p = obs::Json::Object();
    p.Set("foreground_files", params.foreground_files);
    report.Set("params", std::move(p));
  }

  for (sim::FsKind kind : {sim::FsKind::kConventional, sim::FsKind::kCffs}) {
    for (uint32_t disturb : {0u, 4u, 1u}) {
      const std::string name =
          sim::FsKindName(kind) + "/disturb" + std::to_string(disturb);
      std::unique_ptr<sim::SimEnv> env =
          bench::NewMachine(name, kind, sim::SimConfig{});
      workload::InterferenceParams run = params;
      run.disturb_every = disturb;
      auto result = workload::RunInterference(env.get(), run);
      if (!result.ok()) bench::Die(name + ": run", result.status());
      char label[32];
      if (disturb == 0) {
        std::snprintf(label, sizeof label, "none");
      } else {
        std::snprintf(label, sizeof label, "every %u", disturb);
      }
      std::printf("%-14s %12s %12.1f  %s\n", sim::FsKindName(kind).c_str(),
                  label, result->foreground_files_per_sec,
                  result->foreground_read.Summary().c_str());
      obs::Json row = obs::Json::Object();
      row.Set("config", sim::FsKindName(kind));
      row.Set("disturb_every", static_cast<uint64_t>(disturb));
      row.Set("foreground_files_per_sec", result->foreground_files_per_sec);
      row.Set("foreground_read_latency", obs::ToJson(result->foreground_read));
      report.AddRow(std::move(row));
      bench::AddMachine(&report, name, env.get());
    }
  }
  report.Write();
  std::printf("\nThe conventional system's (already modest) locality gains "
              "evaporate under\ninterference; grouped reads amortize the "
              "repositioning over 16 files either way.\n");
  return 0;
}
