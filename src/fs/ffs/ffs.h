// Conventional FFS-like file system — the paper's baseline.
//
// Inodes live in static per-cylinder-group tables ("static
// (over-)allocation of inodes" [Forin94]), found through a per-group inode
// bitmap; directory entries carry inode numbers. The namespace operations
// and their classic ordered synchronous writes are FsBase's:
//   create: initialize inode (sync), then add directory entry (sync);
//   remove: delete directory entry (sync), then free inode (sync);
// this class supplies only where an inode lives (NewInode, ReleaseInode).
// Free-bitmap and indirect-block updates are delayed, as in FFS. There is
// no explicit grouping: data blocks are allocated in the file's cylinder
// group near related objects — locality, not adjacency.
//
// Per the paper's implementation notes, allocation units are 4 KB blocks
// (no fragments) and there is no file-system-level prefetching.
#ifndef CFFS_FS_FFS_FFS_H_
#define CFFS_FS_FFS_FFS_H_

#include <memory>
#include <optional>

#include "src/fs/common/fs_base.h"

namespace cffs::fs {

struct FfsParams {
  uint32_t blocks_per_cg = 2048;  // 8 MB cylinder groups
  uint32_t inodes_per_cg = 512;   // one inode per 16 KB of disk
  // Map new inodes with extents (kInodeFlagExtents) instead of the classic
  // pointer tree; data blocks come from CgAllocator::AllocRun. Persisted in
  // the superblock so a remount keeps allocating the same way.
  bool extent_alloc = false;
};

class FfsFileSystem : public FsBase {
 public:
  // Builds a fresh file system on the device behind `cache` and returns it
  // mounted. Everything is written through `cache` (call Sync() to push);
  // reads that miss go through `readahead` (see FsBase).
  static Result<std::unique_ptr<FfsFileSystem>> Format(
      cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
      const FfsParams& params, MetadataPolicy policy);

  // Mounts an existing file system (reads the superblock).
  static Result<std::unique_ptr<FfsFileSystem>> Mount(
      cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
      MetadataPolicy policy);

  // Whether a superblock image (block 0) carries the FFS magic number.
  static bool IsSuperblock(std::span<const uint8_t> block0);

  // The parameters a superblock image (block 0) records; Corrupt, naming
  // the field, unless they are what Format writes on a device of
  // `device_blocks` blocks.
  static Result<FfsParams> ReadParams(std::span<const uint8_t> block0,
                                      uint64_t device_blocks);

  std::string name() const override { return "ffs"; }
  InodeNum root() const override { return kRootInum; }

  Result<FsSpaceInfo> SpaceInfo() override;

  Result<InodeData> LoadInode(InodeNum num) override;

  // Layout introspection for fsck and tests.
  static constexpr InodeNum kRootInum = 1;
  uint32_t cg_count() const { return ncg_; }
  uint32_t inodes_per_cg() const { return params_.inodes_per_cg; }
  uint32_t blocks_per_cg() const { return params_.blocks_per_cg; }
  // Absolute block and byte offset of an inode image.
  Status LocateInode(InodeNum num, uint32_t* bno, uint32_t* off) const;
  uint32_t InodeBitmapBlock(uint32_t cg) const;
  Result<bool> InodeIsAllocated(InodeNum num);

 protected:
  Status StoreInodeImpl(InodeNum num, const InodeData& ino,
                        bool order_critical) override;
  Result<BlockRun> AllocData(InodeNum num, InodeData* ino, uint64_t idx,
                             uint32_t want,
                             uint64_t size_hint_blocks) override;
  Result<uint32_t> AllocMetaBlock(InodeNum num, const InodeData& ino) override;
  Status FreeBlock(uint32_t bno) override;
  Result<InodeNum> NewInode(InodeNum dir, FileType type,
                            InodeData* ino) override;
  Status ReleaseInode(InodeNum num) override;
  Status WriteSuperblock() override;
  Result<uint32_t> InodeHomeBlock(InodeNum num) override;

 private:
  FfsFileSystem(cache::BufferCache* cache, io::Readahead* readahead,
                SimClock* clock, MetadataPolicy policy, FfsParams params,
                uint32_t ncg);

  uint32_t CgBase(uint32_t cg) const { return 1 + cg * params_.blocks_per_cg; }
  uint32_t InodeTableStart(uint32_t cg) const { return CgBase(cg) + 2; }
  uint32_t InodeTableBlocks() const {
    return params_.inodes_per_cg * kInodeSize / kBlockSize;
  }
  uint32_t CgOfInode(InodeNum num) const {
    return static_cast<uint32_t>((num - 1) / params_.inodes_per_cg);
  }

  std::vector<CgLayout> MakeLayouts() const;

  FfsParams params_;
  uint32_t ncg_;
  uint32_t dir_rotor_ = 0;  // spreads directories across groups
};

}  // namespace cffs::fs

#endif  // CFFS_FS_FFS_FFS_H_
