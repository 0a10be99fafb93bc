// Large-file sanity check: "Placement of data for large files remains
// unchanged" — explicit grouping must not hurt big-file bandwidth. Writes
// and reads one 32 MB file on each configuration and reports MB/s.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/report.h"
#include "src/util/rng.h"

using namespace cffs;

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);  // takes no flags of its own
  constexpr uint64_t kFileBytes = 32ull * 1024 * 1024;
  std::printf("Large-file bandwidth (one %llu MB file)\n",
              static_cast<unsigned long long>(kFileBytes >> 20));
  std::printf("%-14s %12s %12s\n", "config", "write MB/s", "read MB/s");

  bench::Report report("largefile");
  {
    obs::Json p = obs::Json::Object();
    p.Set("file_bytes", kFileBytes);
    report.Set("params", std::move(p));
  }

  const sim::FsKind kinds[] = {sim::FsKind::kFfs, sim::FsKind::kConventional,
                               sim::FsKind::kCffs};
  for (sim::FsKind kind : kinds) {
    const std::string name = sim::FsKindName(kind);
    std::unique_ptr<sim::SimEnv> env =
        bench::NewMachine(name, kind, sim::SimConfig{});
    auto& p = env->path();

    std::vector<uint8_t> chunk(256 * 1024);
    Rng rng(1);
    for (auto& b : chunk) b = static_cast<uint8_t>(rng.Next());

    auto ino = p.CreateFile("/big");
    if (!ino.ok()) bench::Die(name + ": create", ino.status());
    const SimTime w0 = env->clock().now();
    for (uint64_t off = 0; off < kFileBytes; off += chunk.size()) {
      env->ChargeCpu(chunk.size());
      auto n = env->fs()->Write(*ino, off, chunk);
      if (!n.ok()) bench::Die(name + ": write", n.status());
    }
    if (Status s = env->fs()->Sync(); !s.ok()) bench::Die(name + ": sync", s);
    const double wsecs = (env->clock().now() - w0).seconds();

    if (Status s = env->ColdCache(); !s.ok()) {
      bench::Die(name + ": cold cache", s);
    }
    const SimTime r0 = env->clock().now();
    for (uint64_t off = 0; off < kFileBytes; off += chunk.size()) {
      env->ChargeCpu(chunk.size());
      auto n = env->fs()->Read(*ino, off, chunk);
      if (!n.ok()) bench::Die(name + ": read", n.status());
    }
    const double rsecs = (env->clock().now() - r0).seconds();

    std::printf("%-14s %12.2f %12.2f\n", name.c_str(),
                kFileBytes / wsecs / 1e6, kFileBytes / rsecs / 1e6);
    obs::Json row = obs::Json::Object();
    row.Set("config", name);
    row.Set("write_mb_per_sec", kFileBytes / wsecs / 1e6);
    row.Set("read_mb_per_sec", kFileBytes / rsecs / 1e6);
    report.AddRow(std::move(row));
    bench::AddMachine(&report, name, env.get());
  }
  report.Write();
  std::printf("\nAll configurations should be within a few percent: grouping "
              "only touches small files.\n");
  return 0;
}
