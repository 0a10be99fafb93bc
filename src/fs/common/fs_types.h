// Shared file-system types and constants.
#ifndef CFFS_FS_COMMON_FS_TYPES_H_
#define CFFS_FS_COMMON_FS_TYPES_H_

#include <cstdint>
#include <string>

#include "src/blockdev/block_device.h"
#include "src/util/sim_time.h"

namespace cffs::fs {

using blk::kBlockSize;

// Inode number. Plain indices for table/IFILE inodes; C-FFS embedded inodes
// encode their physical location and carry kEmbeddedBit (see cffs.h).
using InodeNum = uint64_t;
inline constexpr InodeNum kInvalidInode = 0;

inline constexpr uint32_t kInodeSize = 128;    // on-disk inode image
inline constexpr uint32_t kMaxNameLen = 255;
inline constexpr uint32_t kDirectBlocks = 12;
inline constexpr uint32_t kPtrsPerBlock = kBlockSize / 4;

// Indirect blocks are arrays of u32 block pointers; the on-disk format
// (inode.h, dir_block.h) assumes they tile a block exactly.
static_assert(kPtrsPerBlock * 4 == kBlockSize,
              "u32 block pointers tile an indirect block exactly");
static_assert(kMaxNameLen == 255, "name length serializes as a u8");

enum class FileType : uint16_t {
  kFree = 0,
  kRegular = 1,
  kDirectory = 2,
};

// When must metadata updates reach the disk?
//   kSynchronous — the classic FFS discipline: ordered synchronous writes
//     for the updates whose sequencing protects integrity.
//   kDelayed — the paper's soft-updates emulation: "delayed writes for all
//     metadata updates" (§4.2, [Ganger94]).
enum class MetadataPolicy {
  kSynchronous,
  kDelayed,
};

struct Attr {
  InodeNum inum = kInvalidInode;
  FileType type = FileType::kFree;
  uint16_t nlink = 0;
  uint64_t size = 0;
  SimTime mtime;
};

struct DirEntryInfo {
  std::string name;
  InodeNum inum = kInvalidInode;
  FileType type = FileType::kFree;
  bool embedded = false;  // C-FFS: inode embedded in the directory entry
};

// Operation counters kept by each file system.
//
// The name-resolution counters obey an accounting invariant checked by
// stats::MetricsSnapshot::CheckInvariants: every Lookup is answered exactly
// once, so lookups == dentry_hits + dentry_neg_hits + dentry_misses.
// ("." and "..", which never enter the dentry cache, count as misses.)
struct FsOpStats {
  uint64_t creates = 0;
  uint64_t unlinks = 0;
  uint64_t lookups = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t mkdirs = 0;
  uint64_t rmdirs = 0;
  uint64_t links = 0;
  uint64_t renames = 0;
  uint64_t sync_metadata_writes = 0;  // synchronous writes actually issued
  uint64_t group_reads = 0;           // C-FFS group fetches triggered

  // Name-resolution acceleration (see fs/common/name_cache.h).
  uint64_t dentry_hits = 0;      // Lookup answered by a positive entry
  uint64_t dentry_neg_hits = 0;  // Lookup answered by a negative entry
  uint64_t dentry_misses = 0;    // Lookup that had to consult the directory
  uint64_t dir_block_reads = 0;  // directory blocks fetched by DirFind
  uint64_t dir_index_builds = 0;   // full scans that built a hash index
  uint64_t dir_index_probes = 0;   // DirFind calls answered via the index
  uint64_t inode_cache_hits = 0;   // GetInode served from the inode cache
  uint64_t inode_cache_misses = 0; // GetInode that decoded from a buffer
  uint64_t readdir_inode_loads_saved = 0;  // ReadDir type fills cache-hit

  void Reset() { *this = FsOpStats{}; }
};

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_FS_TYPES_H_
