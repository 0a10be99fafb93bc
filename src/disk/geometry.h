// Zoned disk geometry and LBA <-> physical-location mapping.
//
// Modern (1996-era) disks record more sectors on outer tracks than inner
// ones ("zoned bit recording"). The geometry is a list of zones, outermost
// first; within a zone every track holds the same number of sectors. LBAs
// are assigned in the conventional order: cylinder-major, then head (track
// within the cylinder), then sector.
#ifndef CFFS_DISK_GEOMETRY_H_
#define CFFS_DISK_GEOMETRY_H_

#include <cstdint>
#include <vector>

#include "src/util/status.h"

namespace cffs::disk {

inline constexpr uint32_t kSectorSize = 512;

struct Zone {
  uint32_t cylinders = 0;          // number of cylinders in this zone
  uint32_t sectors_per_track = 0;  // same for every track in the zone

  bool operator==(const Zone&) const = default;
};

// Physical location of a logical block address.
struct Location {
  uint32_t cylinder = 0;  // absolute cylinder index (0 = outermost)
  uint32_t head = 0;      // surface index
  uint32_t sector = 0;    // sector index within the track
  uint32_t sectors_per_track = 0;  // of the containing zone
  uint32_t zone = 0;
};

class Geometry {
 public:
  Geometry(uint32_t heads, std::vector<Zone> zones);

  // Convenience: single-zone geometry.
  static Geometry Uniform(uint32_t cylinders, uint32_t heads,
                          uint32_t sectors_per_track) {
    return Geometry(heads, {Zone{cylinders, sectors_per_track}});
  }

  uint64_t total_sectors() const { return total_sectors_; }
  uint64_t capacity_bytes() const { return total_sectors_ * kSectorSize; }
  uint32_t heads() const { return heads_; }
  uint32_t total_cylinders() const { return total_cylinders_; }
  const std::vector<Zone>& zones() const { return zones_; }

  // Maps an LBA to its physical location. LBA must be < total_sectors().
  Location Locate(uint64_t lba) const;

  // First LBA of the given absolute cylinder.
  uint64_t CylinderStartLba(uint32_t cylinder) const;

  // Sectors per track on the given absolute cylinder.
  uint32_t SectorsPerTrackAt(uint32_t cylinder) const;

 private:
  uint32_t heads_;
  std::vector<Zone> zones_;
  std::vector<uint64_t> zone_start_lba_;   // first LBA of each zone
  std::vector<uint32_t> zone_start_cyl_;   // first cylinder of each zone
  uint64_t total_sectors_ = 0;
  uint32_t total_cylinders_ = 0;
};

}  // namespace cffs::disk

#endif  // CFFS_DISK_GEOMETRY_H_
