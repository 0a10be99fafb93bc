// Table 2: the experimental platform's drive (Seagate ST31200), plus
// measured behaviour of the simulated drive: sequential vs random 4 KB
// throughput and the closed-loop single-block read penalty that motivates
// grouping (a host reading adjacent 4 KB blocks one request at a time loses
// most of a rotation per request).
#include <cstdio>
#include <cstdlib>

#include "bench/report.h"
#include "src/blockdev/block_device.h"
#include "src/disk/disk_model.h"
#include "src/util/rng.h"

using namespace cffs;

namespace {

// An undetected I/O error would silently corrupt the measured rates, so
// any failure aborts the benchmark instead of being discarded.
void Check(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);  // takes no flags of its own
  const disk::DiskSpec spec = disk::SeagateSt31200();
  std::printf("Table 2: experimental platform drive — %s\n\n", spec.name.c_str());
  std::printf("  RPM                    %u (rotation %.2f ms)\n", spec.rpm,
              spec.RotationPeriod().millis());
  std::printf("  surfaces               %u\n", spec.heads);
  std::printf("  capacity               %.2f GB\n",
              static_cast<double>(spec.MakeGeometry().capacity_bytes()) / 1e9);
  std::printf("  sectors/track          %u (outer) .. %u (inner)\n",
              spec.zones.front().sectors_per_track,
              spec.zones.back().sectors_per_track);
  std::printf("  seek (1 cyl/avg/max)   %.1f / %.1f / %.1f ms\n",
              spec.seek_single.millis(), spec.seek_avg.millis(),
              spec.seek_max.millis());
  std::printf("  media rate (mid zone)  %.2f MB/s\n",
              spec.MediaRate(spec.zones[spec.zones.size() / 2].sectors_per_track) / 1e6);
  std::printf("  bus rate               %.1f MB/s\n\n", spec.bus_mb_per_s);

  bench::Report report("table2_platform");
  {
    obs::Json p = obs::Json::Object();
    p.Set("disk", spec.name);
    p.Set("rpm", static_cast<uint64_t>(spec.rpm));
    p.Set("capacity_gb",
          static_cast<double>(spec.MakeGeometry().capacity_bytes()) / 1e9);
    report.Set("params", std::move(p));
  }

  // Measured on the simulated drive.
  auto measure = [&](const char* label, auto body) {
    SimClock clock;
    disk::DiskModel model(spec, &clock);
    blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
    const double mb = body(&dev, &clock);
    const double secs = clock.now().seconds();
    std::printf("  %-34s %8.2f MB/s\n", label, mb / secs);
    obs::Json row = obs::Json::Object();
    row.Set("workload", label);
    row.Set("mb_per_sec", mb / secs);
    report.AddRow(std::move(row));
  };

  std::vector<uint8_t> buf(64 * blk::kBlockSize);
  measure("sequential read, 64 KB requests", [&](blk::BlockDevice* dev,
                                                 SimClock*) {
    const uint32_t run = 16;
    uint64_t blocks = 0;
    for (uint64_t bno = 1000; blocks < 4096; bno += run, blocks += run) {
      Check(dev->ReadRun(bno, run, buf), "sequential run read");
    }
    return static_cast<double>(blocks) * blk::kBlockSize / 1e6;
  });
  measure("sequential read, 4 KB requests", [&](blk::BlockDevice* dev,
                                                SimClock* clock) {
    uint64_t blocks = 0;
    for (uint64_t bno = 1000; blocks < 1024; ++bno, ++blocks) {
      Check(dev->ReadBlock(bno, buf), "sequential block read");
      clock->AdvanceBy(SimTime::Micros(150));  // host turnaround
    }
    return static_cast<double>(blocks) * blk::kBlockSize / 1e6;
  });
  measure("random read, 4 KB requests", [&](blk::BlockDevice* dev, SimClock*) {
    Rng rng(3);
    const uint64_t nblocks = dev->block_count();
    for (int i = 0; i < 1024; ++i) {
      Check(dev->ReadBlock(rng.Below(nblocks - 16), buf), "random block read");
    }
    return 1024.0 * blk::kBlockSize / 1e6;
  });
  measure("sequential write, 4 KB requests", [&](blk::BlockDevice* dev,
                                                 SimClock* clock) {
    uint64_t blocks = 0;
    for (uint64_t bno = 1000; blocks < 1024; ++bno, ++blocks) {
      Check(dev->WriteBlock(bno, buf), "sequential block write");
      clock->AdvanceBy(SimTime::Micros(150));
    }
    return static_cast<double>(blocks) * blk::kBlockSize / 1e6;
  });
  report.Write();
  std::printf("\nThe 4 KB-request sequential rates show the closed-loop "
              "rotation loss:\nper-request host turnaround means the next "
              "sector has already passed under the head.\n");
  return 0;
}
