// Extent-based block mapping — the alternative inode encoding behind
// kInodeFlagExtents.
//
// A flagged inode reuses the classic pointer fields without changing the
// 128-byte image: the 12 direct pointer words become 4 on-disk extents
// (logical start, physical start, block count — 12 bytes each), and
// `indirect` points at a single extent block holding up to 341 more
// extents. `dindirect` is unused and stays 0. A small file that grows
// sequentially therefore maps with ONE direct extent instead of one
// pointer per block, and large files never need the pointer-tree walk.
//
// Extents are stored in allocation order and never overlap; lookups scan
// (the counts are tiny: 4 direct slots, one block of spill). New
// allocations ask the owning file system for a contiguous run
// (BmapHost::AllocData) and merge with the previous extent when the
// allocator returns physically adjacent blocks — which it prefers to do
// (goal = previous end), so sequential growth coalesces naturally even
// when blocks are requested one at a time.
//
// Callers never use these functions directly: BmapRead/BmapAlloc/
// BmapTruncate/BmapForEach (block_map.h) dispatch on the inode flag, so
// both file systems, fsck and the tools inherit extent support unchanged.
#ifndef CFFS_FS_COMMON_EXTENT_MAP_H_
#define CFFS_FS_COMMON_EXTENT_MAP_H_

#include <cstdint>
#include <vector>

#include "src/fs/common/block_map.h"

namespace cffs::fs {

// cffs-lint: ondisk pin=kExtentOnDiskSize
struct ExtentOnDisk {
  uint32_t logical = 0;  // first file block this extent maps
  uint32_t start = 0;    // first physical block
  uint32_t count = 0;    // run length in blocks; 0 = empty slot
};

inline constexpr size_t kExtentOnDiskSize = 12;

// An extent serializes as three little-endian u32 words; inside the inode
// image those words ARE direct[3i..3i+2], so the inode stays exactly
// kInodeSize bytes and InodeData::Encode/Decode need no extent awareness.
static_assert(sizeof(ExtentOnDisk) == kExtentOnDiskSize,
              "on-disk extent image is exactly 12 bytes");
static_assert(kDirectBlocks % 3 == 0,
              "direct pointer words retile into whole extents");

// 4 extents in the inode image, 341 more in the indirect extent block.
inline constexpr uint32_t kDirectExtents = kDirectBlocks / 3;
inline constexpr uint32_t kExtentsPerBlock =
    kBlockSize / static_cast<uint32_t>(kExtentOnDiskSize);

// Longest run a single allocation requests. Merging may grow a stored
// extent beyond this; it only bounds one BmapHost::AllocData call.
inline constexpr uint32_t kMaxExtentLen = 64;

// Direct-extent view of the inode's pointer words.
ExtentOnDisk DirectExtent(const InodeData& ino, uint32_t slot);
void SetDirectExtent(InodeData* ino, uint32_t slot, const ExtentOnDisk& e);

// The extent-encoding implementations behind the block_map.h dispatch.
// Signatures mirror their classic counterparts exactly.
Result<uint32_t> ExtentBmapRead(cache::BufferCache& cache,
                                const InodeData& ino, uint64_t idx);
Result<uint32_t> ExtentBmapAlloc(BmapHost& host, InodeData* ino, uint64_t idx,
                                 bool* inode_dirtied);
Status ExtentBmapTruncate(BmapHost& host, InodeData* ino,
                          uint64_t keep_blocks);
Status ExtentBmapForEach(
    cache::BufferCache& cache, const InodeData& ino,
    const std::function<Status(uint64_t idx, uint32_t bno)>& fn);

// Records an already-allocated physical block as the mapping of file block
// `idx` (merge-or-append; may allocate only the indirect extent block).
// Used by C-FFS group migration to rebuild a map around copied blocks.
Status ExtentAppendMapping(BmapHost& host, InodeData* ino, uint64_t idx,
                           uint32_t bno, bool* inode_dirtied);

// Every stored extent in storage order (direct slots, then the indirect
// block). For tests, fsck experiments and the dump tool.
Result<std::vector<ExtentOnDisk>> ExtentList(cache::BufferCache& cache,
                                             const InodeData& ino);

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_EXTENT_MAP_H_
