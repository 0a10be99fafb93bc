// Off-line file system checkers, in the spirit of FSCK [McKusick94].
//
// The paper (§3): "we have had no difficulty constructing an off-line file
// system recovery program much like the UNIX FSCK utility. Although inodes
// are no longer at statically determined locations, they can all be found
// (assuming no media corruption) by following the directory hierarchy."
// That is exactly how the C-FFS checker works: it walks the namespace from
// the root, visiting embedded inodes inside directory blocks and
// externalized inodes in the IFILE, and rebuilds the expected block bitmap,
// reservation bitmap and link counts; the FFS checker scans the static
// inode tables instead.
//
// Both checkers detect (and with `repair` fix):
//   * blocks marked used but referenced by no inode ("orphaned"),
//   * blocks referenced but marked free,
//   * blocks referenced by more than one inode,
//   * wrong link counts (FFS / externalized inodes),
//   * inodes marked allocated but free in content (and vice versa),
//   * group-reservation bits with no live group (C-FFS),
//   * directory blocks that fail format validation.
#ifndef CFFS_FSCK_FSCK_H_
#define CFFS_FSCK_FSCK_H_

#include <string>
#include <vector>

#include "src/fs/cffs/cffs.h"
#include "src/fs/ffs/ffs.h"

namespace cffs::fsck {

struct FsckOptions {
  bool repair = false;
};

struct FsckReport {
  bool clean = true;
  std::vector<std::string> problems;
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t referenced_blocks = 0;
  uint64_t repaired = 0;

  void Problem(std::string p) {
    clean = false;
    problems.push_back(std::move(p));
  }
};

// Checks a mounted (quiescent, synced) FFS or C-FFS file system.
Result<FsckReport> Check(fs::FsBase* fs, const FsckOptions& options);
// The C-FFS half of Check.
Result<FsckReport> CheckCffs(fs::CffsFileSystem* fs, const FsckOptions& options);

}  // namespace cffs::fsck

#endif  // CFFS_FSCK_FSCK_H_
