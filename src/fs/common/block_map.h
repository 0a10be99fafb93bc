// Logical-to-physical block mapping (12 direct pointers, one single- and
// one double-indirect block), shared by both file systems.
//
// Readers (BmapRead, BmapForEach) take only the buffer cache, so a read
// path cannot allocate. Writers (BmapAlloc, BmapTruncate) take a BmapHost:
// the owning file system's allocation, freeing and map-block dirtying, so
// the same mapping code serves FFS (cylinder-group allocation) and C-FFS
// (group-slot allocation for small files).
#ifndef CFFS_FS_COMMON_BLOCK_MAP_H_
#define CFFS_FS_COMMON_BLOCK_MAP_H_

#include <cstdint>
#include <functional>

#include "src/cache/buffer_cache.h"
#include "src/fs/common/inode.h"

namespace cffs::fs {

// Largest mappable file block index + 1.
inline constexpr uint64_t kMaxFileBlocks =
    kDirectBlocks + kPtrsPerBlock +
    static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock;

// A contiguous run of physical blocks, as returned by run allocation.
struct BlockRun {
  uint32_t start = 0;
  uint32_t count = 0;
};

// What the writers need from the file system that owns the map. One host
// serves one inode for the length of one operation.
class BmapHost {
 public:
  cache::BufferCache& cache() const { return cache_; }

  // Allocates up to `want` contiguous data blocks for file block `idx`
  // (at least one). Classic maps always ask for one block.
  virtual Result<BlockRun> AllocData(uint64_t idx, uint32_t want) = 0;
  // Allocates an indirect block (or the extent spill block).
  virtual Result<uint32_t> AllocMapBlock() = 0;
  virtual Status FreeBlock(uint32_t bno) = 0;
  // Marks an indirect block dirty under the fs's metadata policy.
  virtual Status DirtyMapBlock(cache::BufferRef& ref) = 0;

 protected:
  explicit BmapHost(cache::BufferCache& cache) : cache_(cache) {}
  ~BmapHost() = default;

 private:
  cache::BufferCache& cache_;
};

// Each entry point below dispatches on kInodeFlagExtents: flagged inodes
// route to the extent encoding (fs/common/extent_map.h), everything else
// uses the classic pointer map. Callers never need to know which is which.

// Physical block holding file block `idx`, or 0 for a hole.
Result<uint32_t> BmapRead(cache::BufferCache& cache, const InodeData& ino,
                          uint64_t idx);

// Like BmapRead but allocates missing blocks (and indirect blocks) on the
// way. Sets *inode_dirtied when the inode's pointers changed.
Result<uint32_t> BmapAlloc(BmapHost& host, InodeData* ino, uint64_t idx,
                           bool* inode_dirtied);

// Frees every mapped block with index >= first_kept... i.e. keeps blocks
// [0, keep_blocks) and frees the rest, including indirect blocks that
// become empty. Updates the inode's pointers.
Status BmapTruncate(BmapHost& host, InodeData* ino, uint64_t keep_blocks);

// Enumerates all mapped blocks: fn(file_block_idx, bno). Indirect blocks
// themselves are reported with idx == UINT64_MAX. Used by fsck.
Status BmapForEach(
    cache::BufferCache& cache, const InodeData& ino,
    const std::function<Status(uint64_t idx, uint32_t bno)>& fn);

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_BLOCK_MAP_H_
