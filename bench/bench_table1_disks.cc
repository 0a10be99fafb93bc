// Table 1: "Characteristics of three modern disk drives" (HP C3653,
// Seagate Barracuda, Quantum Atlas II) — spec-sheet values plus quantities
// derived from the calibrated model (media bandwidth, rotation, and the
// model's average seek, which should match the spec's average).
#include <cstdio>

#include "bench/report.h"
#include "src/disk/disk_model.h"

using namespace cffs;

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);  // takes no flags of its own
  std::printf("Table 1: characteristics of three modern (1996) disk drives\n\n");
  std::printf("%-28s %16s %18s %17s\n", "", "HP C3653", "Seagate Barracuda",
              "Quantum Atlas II");

  auto disks = disk::Table1Disks();
  auto row = [&](const char* label, auto getter) {
    std::printf("%-28s", label);
    for (const auto& spec : disks) std::printf(" %16s", getter(spec).c_str());
    std::printf("\n");
  };

  char buf[64];
  row("RPM", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%u", s.rpm);
    return std::string(buf);
  });
  row("Rotation (ms)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%.2f", s.RotationPeriod().millis());
    return std::string(buf);
  });
  row("Surfaces", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%u", s.heads);
    return std::string(buf);
  });
  row("Sectors/track (outer zone)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%u", s.zones.front().sectors_per_track);
    return std::string(buf);
  });
  row("Sectors/track (inner zone)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%u", s.zones.back().sectors_per_track);
    return std::string(buf);
  });
  row("Capacity (GB)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%.2f",
                  static_cast<double>(s.MakeGeometry().capacity_bytes()) / 1e9);
    return std::string(buf);
  });
  row("Media rate, outer (MB/s)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%.2f",
                  s.MediaRate(s.zones.front().sectors_per_track) / 1e6);
    return std::string(buf);
  });
  row("Single-cyl seek (ms)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%.1f", s.seek_single.millis());
    return std::string(buf);
  });
  row("Average seek, spec (ms)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%.1f", s.seek_avg.millis());
    return std::string(buf);
  });
  row("Average seek, model (ms)", [&](const disk::DiskSpec& s) {
    SimClock clock;
    disk::DiskModel model(s, &clock);
    std::snprintf(buf, sizeof buf, "%.1f",
                  model.seek_curve().MeanOverUniformPairs().millis());
    return std::string(buf);
  });
  row("Maximum seek (ms)", [&](const disk::DiskSpec& s) {
    std::snprintf(buf, sizeof buf, "%.1f", s.seek_max.millis());
    return std::string(buf);
  });

  std::printf("\nPaper's Table 1 seek columns (verbatim from the text):\n");
  std::printf("  track-to-track: <1 / 0.6 / 1.0 ms; average: 8.7 / 8.0 / 7.9 ms;"
              " maximum: 16.5 / 19.0 / 18.0 ms\n");

  bench::Report report("table1_disks");
  for (const auto& s : disks) {
    SimClock clock;
    disk::DiskModel model(s, &clock);
    obs::Json r = obs::Json::Object();
    r.Set("disk", s.name);
    r.Set("rpm", static_cast<uint64_t>(s.rpm));
    r.Set("rotation_ms", s.RotationPeriod().millis());
    r.Set("surfaces", static_cast<uint64_t>(s.heads));
    r.Set("sectors_per_track_outer",
          static_cast<uint64_t>(s.zones.front().sectors_per_track));
    r.Set("sectors_per_track_inner",
          static_cast<uint64_t>(s.zones.back().sectors_per_track));
    r.Set("capacity_gb",
          static_cast<double>(s.MakeGeometry().capacity_bytes()) / 1e9);
    r.Set("media_rate_outer_mb_s",
          s.MediaRate(s.zones.front().sectors_per_track) / 1e6);
    r.Set("seek_single_ms", s.seek_single.millis());
    r.Set("seek_avg_spec_ms", s.seek_avg.millis());
    r.Set("seek_avg_model_ms",
          model.seek_curve().MeanOverUniformPairs().millis());
    r.Set("seek_max_ms", s.seek_max.millis());
    report.AddRow(std::move(r));
  }
  report.Write();
  return 0;
}
