// Figure 2: "average access times as a function of the request size" for
// the three Table 1 drives. The paper's point: per-request positioning
// dwarfs per-byte cost for small requests, so moving 64 KB costs little
// more than moving 4 KB — the headroom explicit grouping exploits.
#include <cstdio>

#include "bench/report.h"
#include "src/disk/disk_model.h"

using namespace cffs;

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);  // takes no flags of its own
  std::printf("Figure 2: average access time (ms) vs request size\n\n");
  auto disks = disk::Table1Disks();
  std::printf("%10s", "size");
  for (const auto& s : disks) std::printf(" %18s", s.name.c_str());
  std::printf(" %18s\n", "bandwidth eff.*");

  bench::Report report("fig2_access_time");
  for (uint64_t size = 512; size <= 1024 * 1024; size *= 2) {
    if (size >= 1024) {
      std::printf("%9lluK", static_cast<unsigned long long>(size / 1024));
    } else {
      std::printf("%10llu", static_cast<unsigned long long>(size));
    }
    obs::Json row = obs::Json::Object();
    row.Set("request_bytes", size);
    double first_ms = 0;
    for (size_t i = 0; i < disks.size(); ++i) {
      SimClock clock;
      disk::DiskModel model(disks[i], &clock);
      const double ms = model.AverageAccessTime(size).millis();
      if (i == 0) first_ms = ms;
      std::printf(" %18.2f", ms);
      row.Set(disks[i].name + "_ms", ms);
    }
    // Fraction of the first drive's media bandwidth a stream of such
    // requests achieves.
    SimClock clock;
    disk::DiskModel model(disks[0], &clock);
    const double media =
        disks[0].MediaRate(disks[0].zones[disks[0].zones.size() / 2]
                               .sectors_per_track);
    const double achieved = static_cast<double>(size) / (first_ms / 1e3);
    std::printf(" %17.1f%%\n", 100.0 * achieved / media);
    row.Set("bandwidth_efficiency", achieved / media);
    report.AddRow(std::move(row));
  }
  report.Write();
  std::printf("\n* of the HP C3653's media rate; small requests waste the "
              "disk's bandwidth on positioning.\n");
  return 0;
}
