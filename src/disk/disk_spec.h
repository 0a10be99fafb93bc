// Spec-sheet descriptions of the four disk drives the paper uses.
//
// Table 1 of the paper lists three state-of-the-art (for 1996) drives:
// HP C3653, Seagate Barracuda and Quantum Atlas II. Table 2 describes the
// experimental platform's drive, a Seagate ST31200. The supplied paper text
// preserves the seek columns of Table 1 verbatim (track-to-track <1 / 0.6 /
// 1.0 ms; average 8.7 / 8.0 / 7.9 ms; maximum 16.5 / 19.0 / 18.0 ms); the
// remaining fields (RPM, zones, sectors per track, interface rate) are
// reconstructed from the drives' public spec sheets and are marked
// "inferred" in DESIGN.md. The shape-level results depend only on the ratio
// of positioning cost to bandwidth, which these numbers preserve.
#ifndef CFFS_DISK_DISK_SPEC_H_
#define CFFS_DISK_DISK_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/disk/geometry.h"
#include "src/util/sim_time.h"

namespace cffs::disk {

struct DiskSpec {
  std::string name;
  uint32_t rpm = 0;
  uint32_t heads = 0;
  std::vector<Zone> zones;

  SimTime seek_single;  // track-to-track seek
  SimTime seek_avg;     // average seek (random, uniform)
  SimTime seek_max;     // full stroke

  SimTime head_switch;      // surface change within a cylinder
  SimTime command_overhead; // controller/command processing per request
  double bus_mb_per_s = 10.0;  // host transfer rate (fast SCSI-2 era)

  // On-board cache behaviour.
  uint32_t cache_segments = 1;        // number of read segments
  uint32_t prefetch_sectors = 64;     // read-ahead beyond each read
  bool write_cache_enabled = false;   // 1996 defaults: off

  SimTime RotationPeriod() const {
    return SimTime::Millis(60000.0 / static_cast<double>(rpm));
  }
  // Media rate on the given sectors-per-track (bytes/sec).
  double MediaRate(uint32_t sectors_per_track) const {
    return static_cast<double>(sectors_per_track) * kSectorSize /
           RotationPeriod().seconds();
  }

  Geometry MakeGeometry() const { return Geometry(heads, zones); }

  bool operator==(const DiskSpec&) const = default;
};

// Table 1 drives.
DiskSpec HpC3653();
DiskSpec SeagateBarracuda();
DiskSpec QuantumAtlasII();

// Table 2 drive (the experimental platform).
DiskSpec SeagateSt31200();

// A deliberately small drive with the ST31200's timing, for fast tests.
DiskSpec TestDisk(uint32_t cylinders = 256, uint32_t heads = 4,
                  uint32_t sectors_per_track = 64);

std::vector<DiskSpec> Table1Disks();

}  // namespace cffs::disk

#endif  // CFFS_DISK_DISK_SPEC_H_
