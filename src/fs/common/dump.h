// Human-readable dumps of on-disk structures (debugfs-style introspection).
//
// Used by the cffs_debug tool and by tests that want to assert on the
// logical structure of an image without reimplementing the walk.
#ifndef CFFS_FS_COMMON_DUMP_H_
#define CFFS_FS_COMMON_DUMP_H_

#include <string>

#include "src/fs/cffs/cffs.h"
#include "src/fs/ffs/ffs.h"

namespace cffs::fs {

// One-line summary of an inode image.
std::string DescribeInode(const InodeData& ino);

// Renders a directory's records: names, kinds, inode numbers.
Result<std::string> DumpDirectory(FsBase* fs, InodeNum dir);

// Renders the whole namespace as an indented tree (names, sizes, grouping).
Result<std::string> DumpTree(FsBase* fs);

// Superblock / geometry / allocation summary of an FFS or C-FFS.
Result<std::string> DumpSuperblock(FsBase* fs);

// Cylinder-group utilization table: used/free/reserved blocks per group.
Result<std::string> DumpAllocation(FsBase* fs);

// Free-space fragmentation: histogram of free-extent run lengths, and the
// fraction of free space in runs of >= `group_blocks` (i.e. how much of
// the disk can still host a group extent). Used by the aging experiments.
struct FragmentationStats {
  uint64_t free_blocks = 0;
  uint64_t free_runs = 0;
  uint64_t longest_run = 0;
  double avg_run = 0;
  double groupable_fraction = 0;  // free space in runs >= group_blocks
};
Result<FragmentationStats> MeasureFragmentation(CgAllocator* alloc,
                                                uint16_t group_blocks);
std::string DescribeFragmentation(const FragmentationStats& stats);

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_DUMP_H_
