// Directory -> shard placement for the scale-out namespace router.
//
// The placement unit is a DIRECTORY, and a file always lives on the shard
// that owns its parent directory. That co-location rule is what makes the
// placement "group-aware": C-FFS packs a directory's embedded inodes and
// the first blocks of its small files into one on-disk group (the paper's
// explicit grouping), so routing whole directories keeps every
// embedded-inode group physically intact on exactly one shard's disk —
// the group is the indivisible shard unit, never split by placement.
//
// Directories are placed by jump consistent hashing [Lamping & Veach '14]
// over an FNV-1a hash of the normalized absolute path. Jump hashing is a
// pure function of (key, shard count): no seed, no state, no placement
// table — the mapping is identical across router instances, process
// restarts and remounts, and when the declared shard count grows from M
// to M+1 only ~1/(M+1) of directories move, all of them onto the NEW
// shard (the determinism test pins both properties).
#ifndef CFFS_SHARD_PLACEMENT_H_
#define CFFS_SHARD_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace cffs::shard {

// Canonical form of an absolute directory path: leading '/', no trailing
// '/', empty components dropped ("/a//b/" -> "/a/b", "" -> "/").
std::string NormalizeDirPath(std::string_view path);

// Parent directory of a normalized path ("/a/b" -> "/a", "/a" -> "/").
std::string ParentDirPath(std::string_view path);

// FNV-1a over the normalized path; the jump-hash key.
uint64_t DirPlacementKey(std::string_view normalized_dir);

// Lamping & Veach jump consistent hash: maps key to [0, buckets).
uint32_t JumpConsistentHash(uint64_t key, uint32_t buckets);

// Owning shard of a directory (the path is normalized internally).
uint32_t ShardForDir(std::string_view dir_path, uint32_t shards);

// Owning shard of a file: its parent directory's shard, always — this is
// the group-affinity rule (a directory's embedded-inode group, directory
// block and member file data all land on one shard's disk).
uint32_t ShardForFile(std::string_view file_path, uint32_t shards);

}  // namespace cffs::shard

#endif  // CFFS_SHARD_PLACEMENT_H_
