// Cylinder-group block allocator, shared by both file systems.
//
// The disk is divided into cylinder groups ("the Fast File System breaks
// the file system's disk storage into cylinder groups and attempts to
// allocate most new objects in the same cylinder group as related
// objects"). Each group has a block bitmap; C-FFS adds a second,
// reservation bitmap marking blocks that belong to explicit-grouping
// extents so ordinary allocations don't invade group territory.
//
// Bitmap updates are delayed writes (dirty cache blocks), matching FFS:
// free-map integrity is restored by fsck after a crash.
#ifndef CFFS_FS_COMMON_ALLOCATOR_H_
#define CFFS_FS_COMMON_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/fs/common/block_map.h"
#include "src/fs/common/fs_types.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace cffs::fs {

struct CgLayout {
  uint32_t first_block = 0;   // absolute block number of the group start
  uint32_t blocks = 0;        // group size in blocks (bitmap covers these)
  uint32_t bitmap_block = 0;  // absolute block of the block bitmap
  uint32_t resv_block = 0;    // absolute block of the reservation bitmap; 0 = none
  uint32_t data_start = 0;    // absolute first allocatable block
  uint32_t resv_align = 16;   // group-extent size/alignment (for reclamation)
};

class CgAllocator {
 public:
  CgAllocator(cache::BufferCache* cache, std::vector<CgLayout> groups);

  uint32_t cg_count() const { return static_cast<uint32_t>(groups_.size()); }
  const CgLayout& layout(uint32_t cg) const { return groups_[cg]; }
  // The group holding `bno`, or 0 for a block outside every group. The
  // groups must be equal in size and back to back, as both file systems
  // lay them out (1 + cg * blocks_per_cg).
  uint32_t CgOf(uint32_t bno) const;

  // Initializes the bitmaps on disk: metadata blocks (everything below
  // data_start) marked used, rest free. Called by mkfs.
  Status FormatBitmaps();

  // Recomputes the cached free count by scanning bitmaps (mount time).
  Status RecountFree();
  uint64_t free_blocks() const { return free_blocks_; }

  // Allocates one free, unreserved block, preferring the block at `goal`,
  // then its cylinder group, then the remaining groups round-robin. When
  // every unreserved block is taken, idle group reservations are reclaimed
  // and, as a last resort, the reservation bits are ignored (space held by
  // half-empty groups is better used than returning ENOSPC).
  Result<uint32_t> AllocNear(uint32_t goal);

  // Allocates a run of up to `want` contiguous free, unreserved blocks for
  // extent-based mapping. Tries the free-run hint stack of goal's cylinder
  // group first (hints recorded by Free, always re-validated against the
  // bitmaps), then allocates a first block with AllocNear's placement and
  // extends it greedily in place. Always returns at least one block.
  Result<BlockRun> AllocRun(uint32_t goal, uint32_t want);

  // Clears reservation windows whose blocks are all free. Returns how many
  // windows were released.
  Result<uint32_t> SweepIdleReservations();

  // Allocates a run of `run` contiguous free+unreserved blocks aligned to
  // `align`, preferring cylinder group `cg`, and sets their reservation
  // bits (requires a reservation bitmap). Blocks stay FREE in the block
  // bitmap — slots are claimed individually with AllocInExtent.
  Result<uint32_t> AllocExtent(uint32_t cg, uint32_t run, uint32_t align);

  // Claims one free block inside [start, start+len) (a group extent).
  Result<uint32_t> AllocInExtent(uint32_t start, uint32_t len);

  // True if every block of [start, start+len) is free in the block bitmap.
  Result<bool> ExtentIdle(uint32_t start, uint32_t len);

  // Clears the reservation bits of [start, start+len).
  Status ReleaseExtent(uint32_t start, uint32_t len);

  // True if the whole extent has its reservation bits set.
  Result<bool> ExtentReserved(uint32_t start, uint32_t len);

  Status Free(uint32_t bno);

  // Marks a specific block used (fsck rebuild, tests).
  Status MarkUsed(uint32_t bno);
  Result<bool> IsFree(uint32_t bno);

  // Ordering-annotation wiring (see obs::MetaUpdateKind): every free-map
  // bit flip is reported against the bitmap block that carries it. op_id
  // points at the owning file system's operation counter; clock stamps
  // the events. Set by FsBase::set_trace; nullptr disables.
  void set_trace(obs::TraceRecorder* trace, const uint64_t* op_id,
                 SimClock* clock);

  // Self-test mutation: Free() clears the in-memory bit and emits its
  // annotation but never marks the bitmap buffer dirty, so the update can
  // never reach the disk — the lost-update shape the analyzer must flag.
  void set_skip_free_write_for_test(bool skip) { skip_free_write_ = skip; }

 private:
  Result<uint32_t> AllocInCg(uint32_t cg, uint32_t goal_abs,
                             bool ignore_reservations);
  Result<uint32_t> AllocNearPass(uint32_t goal, bool ignore_reservations);
  // Claims `bno` if it is allocatable, free and unreserved; false if not.
  Result<bool> TryAllocAt(uint32_t bno);
  void TraceMapBit(obs::MetaUpdateKind kind, uint32_t bitmap_block,
                   uint32_t bno);

  static constexpr size_t kMaxFreeRunHints = 64;

  cache::BufferCache* cache_;
  std::vector<CgLayout> groups_;
  // Per-cg stacks of recently-freed runs — placement hints for AllocRun.
  // Purely advisory: every candidate block is re-validated against the
  // bitmaps, so stale entries cost a probe, never correctness.
  std::vector<std::vector<BlockRun>> free_runs_;
  uint64_t free_blocks_ = 0;
  uint32_t rotor_ = 0;  // round-robin over cylinder groups
  obs::TraceRecorder* trace_ = nullptr;
  const uint64_t* op_id_ = nullptr;
  SimClock* clock_ = nullptr;
  bool skip_free_write_ = false;
};

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_ALLOCATOR_H_
