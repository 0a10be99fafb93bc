// C-FFS: the Co-locating Fast File System (the paper's contribution).
//
// Two techniques, each independently switchable (Options) so benchmarks can
// measure "neither", "embedded only", "grouping only" and "both", exactly
// as the paper's §4.2 does:
//
// * Embedded inodes — a regular file's inode is stored inside its directory
//   entry. Name and inode share a disk sector, so create/delete need a
//   single (atomic) metadata write instead of FFS's two ordered synchronous
//   writes, and opening a file requires no inode-table access at all.
//   Directories and multi-link files keep externalized inodes in the IFILE,
//   "a dynamically-growable, file-like structure that is similar to the
//   IFILE in BSD-LFS [Seltzer93]... it grows as needed but does not shrink
//   and its blocks do not move once they have been allocated."
//   An embedded inode's number encodes its location:
//     inum = kEmbeddedBit | (block << 9) | (byte_offset / 8)
//   Directory blocks never move and directory records never shift, so the
//   number is stable until the entry itself is renamed or externalized.
//   The namespace operations are FsBase's, written once over externalized
//   inodes (the IFILE supplies NewInode and ReleaseInode); this class
//   overrides one step of each (CreateStep, UnlinkStep, LinkStep,
//   RenameStep) for embedded inodes and falls back to FsBase's for the rest.
//
// * Explicit grouping — the data blocks of small files created in the same
//   directory are allocated inside a contiguous, aligned "group" extent and
//   moved to/from disk as one unit: a read miss on any grouped block
//   fetches the whole extent with a single scatter/gather command
//   (io::Readahead::StageGroup), and delayed writes of grouped blocks coalesce
//   into single commands at flush time. A directory's current extent is
//   recorded in its inode (active_group); each member file's inode records
//   its extent (group_start/group_len). A per-cylinder-group reservation
//   bitmap keeps ordinary allocations out of group territory; an extent
//   whose blocks are all free again is released for reuse.
//
// Files that outgrow `small_file_max_blocks` are migrated out of their
// group (the grouped prefix is re-allocated to ordinary clustered storage)
// so groups keep holding only small files, as in the paper.
#ifndef CFFS_FS_CFFS_CFFS_H_
#define CFFS_FS_CFFS_CFFS_H_

#include <memory>

#include "src/fs/common/fs_base.h"

namespace cffs::fs {

inline constexpr InodeNum kEmbeddedBit = InodeNum{1} << 62;

inline bool IsEmbedded(InodeNum num) { return (num & kEmbeddedBit) != 0; }
inline InodeNum MakeEmbedded(uint32_t bno, uint32_t byte_off) {
  return kEmbeddedBit | (static_cast<InodeNum>(bno) << 9) | (byte_off / 8);
}
inline uint32_t EmbeddedBlock(InodeNum num) {
  return static_cast<uint32_t>((num & ~kEmbeddedBit) >> 9);
}
inline uint32_t EmbeddedOffset(InodeNum num) {
  return static_cast<uint32_t>(num & 0x1ff) * 8;
}

struct CffsOptions {
  bool embed_inodes = true;
  bool grouping = true;
  uint16_t group_blocks = 16;        // 64 KB extents
  uint16_t small_file_max_blocks = 8;  // beyond this, migrate out of group
  uint32_t blocks_per_cg = 2048;
  // Map new inodes with extents (kInodeFlagExtents) instead of the classic
  // pointer tree. Grouped small-file blocks still come one at a time from
  // the group extent; ungrouped files use CgAllocator::AllocRun. Persisted
  // in the superblock. The IFILE always keeps the classic encoding (its
  // blocks never move and its map never shrinks).
  bool extent_alloc = false;
};

class CffsFileSystem : public FsBase {
 public:
  // As FfsFileSystem's: reads that miss go through `readahead`, which
  // fetches a live group with one command (see FsBase).
  static Result<std::unique_ptr<CffsFileSystem>> Format(
      cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
      const CffsOptions& options, MetadataPolicy policy);
  static Result<std::unique_ptr<CffsFileSystem>> Mount(
      cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
      MetadataPolicy policy);

  // Whether a superblock image (block 0) carries the C-FFS magic number.
  static bool IsSuperblock(std::span<const uint8_t> block0);

  // The options a superblock image (block 0) records; Corrupt, naming the
  // field, unless they are what Format writes on a device of
  // `device_blocks` blocks.
  static Result<CffsOptions> ReadOptions(std::span<const uint8_t> block0,
                                         uint64_t device_blocks);

  std::string name() const override;
  InodeNum root() const override { return kRootSlot; }

  Result<FsSpaceInfo> SpaceInfo() override;

  Result<InodeData> LoadInode(InodeNum num) override;

  const CffsOptions& options() const { return options_; }
  const InodeData& ifile_inode() const { return ifile_; }

  // External inode slots; public for fsck.
  static constexpr InodeNum kRootSlot = 1;
  Result<InodeData> LoadExternalInode(uint64_t slot);
  uint64_t external_slot_count() const {
    return ifile_.size / kInodeSize;
  }
  // Physical IFILE block holding a slot's inode image, so fsck can clear
  // unreachable slots in place.
  Result<uint32_t> ExternalSlotBlock(uint64_t slot) {
    return IfileBlockFor(slot, /*allocate=*/false);
  }

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
  Status PrepareDataRead(const InodeData& ino, uint32_t bno) override;
  Status AfterBlocksFreed(InodeNum num, InodeData* ino) override;
  uint64_t FlushUnitFor(InodeNum num, const InodeData& ino,
                        uint32_t bno) override;
  Result<uint32_t> InodeHomeBlock(InodeNum num) override;

  // Embedded inodes; each falls back to FsBase's step for external ones.
  Result<InodeNum> CreateStep(InodeNum dir, InodeData* d,
                              std::string_view name, FileType type,
                              bool* grown) override;
  Status UnlinkStep(InodeNum dir, std::string_view name, const DirSlot& slot,
                    InodeData* ino) override;
  Status LinkStep(InodeNum dir, InodeData* d, std::string_view name,
                  InodeNum target, InodeData* tino, bool* grown) override;
  Status RenameStep(InodeNum inum, InodeNum new_dir, InodeData* nd,
                    std::string_view new_name, bool* grown) override;

 private:
  CffsFileSystem(cache::BufferCache* cache, io::Readahead* readahead,
                 SimClock* clock, MetadataPolicy policy, CffsOptions options,
                 uint32_t ncg);

  uint32_t CgBase(uint32_t cg) const { return 1 + cg * options_.blocks_per_cg; }
  std::vector<CgLayout> MakeLayouts() const;

  // IFILE (externalized inodes).
  class IfileHost;
  Result<uint32_t> IfileBlockFor(uint64_t slot, bool allocate);
  Result<uint64_t> AllocExternalSlot();
  Status ScanExternalFreeSlots();

  // Grouping.
  Result<uint32_t> AllocGroupedBlock(InodeNum num, InodeData* ino);
  Result<uint32_t> AllocInExtentChecked(uint32_t start, uint16_t len);
  // Start of the aligned group window containing bno.
  uint32_t AlignedWindowOf(uint32_t bno) const;
  // The live group extent containing `bno` of file `ino`, or 0 if none.
  Result<uint32_t> GroupExtentOf(const InodeData& ino, uint32_t bno);
  Status MigrateOutOfGroup(InodeNum num, InodeData* ino);
  Status ReleaseGroupIfIdle(uint32_t group_start, uint16_t group_len);

  // Adds an embedded record for `ino` to `dir`, encodes the image beside
  // the name and writes the block once; returns the number, which encodes
  // the image's place (create and rename).
  Result<InodeNum> AddEmbedded(InodeNum dir, InodeData* d,
                               std::string_view name, InodeData* ino,
                               bool* grown);

  CffsOptions options_;
  uint32_t ncg_;
  InodeData ifile_;               // inode of the externalized-inode file
  std::vector<uint64_t> free_slots_;  // free IFILE slots (mount-time scan)
  uint32_t dir_rotor_ = 0;
};

}  // namespace cffs::fs

#endif  // CFFS_FS_CFFS_CFFS_H_
