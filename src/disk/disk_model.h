// Mechanical disk model with on-board segment cache.
//
// The model tracks arm position (cylinder) and rotational position (derived
// from the simulation clock — the platter spins continuously in simulated
// time). A media access costs:
//
//   command overhead + seek(cylinder distance) + rotational latency to the
//   target sector + media transfer, with head-switch / cylinder-switch
//   costs when a transfer crosses track or cylinder boundaries (track and
//   cylinder skew are assumed to be optimally set, as on real drives, so
//   sequential transfer continues after exactly the switch cost).
//
// Reads that hit the on-board read-ahead segment cache cost only command
// overhead plus bus transfer, modelling the drive's sequential prefetch
// ("The disk prefetches sequential disk data into its on-board cache",
// paper §4.1). Prefetch is time-limited, as on real drives: after a read
// completes, the drive keeps reading ahead at media rate only until the
// next command arrives, so a closed-loop host issuing back-to-back
// single-block sequential reads gains only a fraction of a block of
// read-ahead per request. A request that is only partially covered by the
// prefetched segment restarts as a normal mechanical access (1994-era
// firmware behaviour) and therefore pays nearly a full rotation — the
// precise penalty that made FFS-style one-block-per-file access slow and
// that explicit grouping eliminates by moving whole groups per command.
//
// The backing store is a flat directory of 128 KB chunks, one slot per
// chunk of the drive, and a chunk is allocated when a sector in it is first
// written. Within a chunk each 4 KB block keeps only its sectors up to its
// last non-zero one (a 1 KB file's block keeps 2 of its 8 sectors, an
// all-zero block none), and every sector past that prefix reads as zeros.
// So a drive costs 8 bytes per chunk, a small record per written chunk and
// each written block's stored sectors, whatever its size.
#ifndef CFFS_DISK_DISK_MODEL_H_
#define CFFS_DISK_DISK_MODEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/disk/disk_spec.h"
#include "src/disk/geometry.h"
#include "src/disk/seek_curve.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace cffs::disk {

struct DiskStats {
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  uint64_t cache_hit_requests = 0;   // served from the on-board cache
  uint64_t seek_cylinders = 0;       // total cylinders travelled

  SimTime seek_time;
  SimTime rotation_time;
  SimTime transfer_time;
  SimTime overhead_time;
  SimTime busy_time;  // total time the drive spent on requests

  uint64_t total_requests() const { return read_requests + write_requests; }
  void Reset() { *this = DiskStats{}; }
};

class DiskModel {
 public:
  DiskModel(DiskSpec spec, SimClock* clock);

  const DiskSpec& spec() const { return spec_; }
  const Geometry& geometry() const { return geometry_; }
  const SeekCurve& seek_curve() const { return seek_curve_; }
  uint64_t total_sectors() const { return geometry_.total_sectors(); }
  SimTime now() const { return clock_->now(); }

  // Reads/writes advance the simulation clock by the access time.
  Status Read(uint64_t lba, uint32_t nsectors, std::span<uint8_t> out);
  Status Write(uint64_t lba, uint32_t nsectors, std::span<const uint8_t> in);

  // Average access time for a random request of `bytes` bytes: average
  // seek + half-rotation + transfer on a middle-zone track + overhead.
  // This is the quantity plotted in Figure 2 of the paper.
  SimTime AverageAccessTime(uint64_t bytes) const;

  DiskStats& stats() { return stats_; }
  const DiskStats& stats() const { return stats_; }

  // Emits one kDiskIo trace event per command, with the per-command
  // seek/rotation/transfer/overhead breakdown. nullptr disables tracing.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Charges each command's seek/rotation/transfer/overhead time to the
  // operation in flight (see obs/span.h). nullptr disables attribution.
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }

  // --- fault injection (tests / fsck experiments) ---
  // Future reads of this LBA fail with kIoError until cleared.
  void InjectReadError(uint64_t lba) { bad_sectors_.insert(lba); }
  void ClearReadError(uint64_t lba) { bad_sectors_.erase(lba); }
  // Whether a read of [lba, lba + nsectors) would fail. Lets alternative
  // device models (src/flash) that bypass Read's timing path keep
  // fault-injection parity.
  bool HasReadError(uint64_t lba, uint32_t nsectors) const;
  // Silently flips bits in a stored sector (media corruption). A sector
  // past the end of the drive is OutOfRange.
  Status CorruptSector(uint64_t lba);

  // Direct, time-free access for tools (mkfs image inspection, fsck tests)
  // and the flash model: copies out.size() / kSectorSize sectors starting
  // at `lba` (the span must hold whole sectors). Unwritten sectors, and
  // sectors past the end of the drive, read as zeros.
  void PeekSector(uint64_t lba, std::span<uint8_t> out) const;
  // Writes whole sectors (a partial one is InvalidArgument); a run that
  // does not fit on the drive is OutOfRange and writes nothing. A poke that covers only part of a 4 KB
  // block reads, merges and re-stores that block.
  Status PokeSector(uint64_t lba, std::span<const uint8_t> in);

  // Image (de)serialization support — see src/disk/image.h. The store's
  // chunks are the image's: kImageChunkSectors sectors each, numbered from
  // the start of the drive.
  static constexpr uint32_t kImageChunkSectors = 256;
  // Calls `fn` once per chunk that any write has touched, in ascending
  // chunk order, with the chunk's full 128 KB (unstored sectors as zeros).
  void ForEachChunk(
      const std::function<void(uint64_t chunk_index,
                               std::span<const uint8_t> data)>& fn) const;
  // Stores a whole chunk (`data` must be 128 KB, or InvalidArgument); a
  // chunk past the drive's last is OutOfRange.
  Status RestoreChunk(uint64_t chunk_index, std::span<const uint8_t> data);
  // Moves `other`'s contents onto this disk of the same spec, leaving
  // `other` blank, so an image saved from this disk has the bytes one
  // saved from `other` would have.
  void TakeContents(DiskModel& other);

 private:
  // The store's unit inside a chunk: the file systems' 4 KB block.
  static constexpr uint32_t kBlockSectors = 8;
  static constexpr uint32_t kChunkBlocks = kImageChunkSectors / kBlockSectors;

  // One written chunk. Block b stores its first kept[b] sectors in
  // data[b] (null when kept[b] is 0); the rest of the block is zeros.
  struct Chunk {
    std::array<std::unique_ptr<uint8_t[]>, kChunkBlocks> data;
    std::array<uint8_t, kChunkBlocks> kept{};
  };

  struct CacheSegment {
    uint64_t begin = 0;    // first cached LBA
    uint64_t end = 0;      // one past last cached LBA
    uint64_t max_end = 0;  // read-ahead limit (end-at-insert + prefetch)
    uint64_t last_use = 0;
    bool valid = false;
  };

  // The time a command arriving at `start` completes, with its overhead
  // and transfer (and for a mechanical access its seek and rotation)
  // charged to stats_. BusAccess serves it at bus speed (an on-board cache
  // hit, or a write into the write cache); MechanicalAccess goes to the
  // platter and leaves the arm on the cylinder where the transfer ends.
  SimTime BusAccess(SimTime start, uint32_t nsectors);
  SimTime MechanicalAccess(SimTime start, uint64_t lba, uint32_t nsectors);

  // The end of every command: counts it, charges its busy time, advances
  // the clock to `done`, attributes its time breakdown (the stats' growth
  // since `before`, the snapshot taken when the command arrived) to the op
  // in flight and emits its kDiskIo event.
  void FinishCommand(const DiskStats& before, SimTime start, SimTime done,
                     uint64_t lba, uint32_t nsectors, bool is_write,
                     bool segment_hit);

  // Rotational angle in [0,1) at absolute simulated time t.
  double AngleAt(SimTime t) const;

  bool CacheHit(uint64_t lba, uint32_t nsectors);
  void CacheInsert(uint64_t lba, uint32_t nsectors);
  void CacheInvalidate(uint64_t lba, uint32_t nsectors);

  // The written chunk `index`, or null when it was never written or lies
  // past the drive's end.
  const Chunk* FindChunk(uint64_t index) const;
  // The chunk holding `lba`, created if need be. `lba` must be on the
  // drive; the directory lookup is bounds-checked in every build.
  Chunk& ChunkOf(uint64_t lba);
  // Copies `n` sectors of block `block`, starting at sector `first` of the
  // block, out of `chunk` (which may be null) into `out`.
  static void CopyOut(const Chunk* chunk, uint32_t block, uint32_t first,
                      uint32_t n, uint8_t* out);
  // Stores one whole 4 KB block, keeping its sectors up to the last
  // non-zero one.
  static void StoreBlock(Chunk& chunk, uint32_t block, const uint8_t* in);

  DiskSpec spec_;
  Geometry geometry_;
  SeekCurve seek_curve_;
  SimClock* clock_;

  uint32_t current_cylinder_ = 0;
  DiskStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanTracker* spans_ = nullptr;

  std::vector<CacheSegment> cache_;
  uint64_t cache_clock_ = 0;
  SimTime last_read_complete_;       // when the most recent media read ended
  int last_read_segment_ = -1;       // segment still being extended, or -1

  std::vector<std::unique_ptr<Chunk>> chunks_;  // one slot per drive chunk
  std::unordered_set<uint64_t> bad_sectors_;
};

}  // namespace cffs::disk

#endif  // CFFS_DISK_DISK_MODEL_H_
