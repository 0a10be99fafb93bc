#include "src/shard/placement.h"

namespace cffs::shard {

std::string NormalizeDirPath(std::string_view path) {
  std::string out = "/";
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    size_t start = i;
    while (i < path.size() && path[i] != '/') ++i;
    if (i == start) break;
    if (out.size() > 1) out += '/';
    out.append(path.substr(start, i - start));
  }
  return out;
}

std::string ParentDirPath(std::string_view path) {
  std::string norm = NormalizeDirPath(path);
  size_t slash = norm.find_last_of('/');
  if (slash == 0) return "/";
  return norm.substr(0, slash);
}

uint64_t DirPlacementKey(std::string_view normalized_dir) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : normalized_dir) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

uint32_t JumpConsistentHash(uint64_t key, uint32_t buckets) {
  if (buckets <= 1) return 0;
  int64_t b = -1;
  int64_t j = 0;
  while (j < static_cast<int64_t>(buckets)) {
    b = j;
    key = key * 2862933555777941757ULL + 1;
    j = static_cast<int64_t>(
        static_cast<double>(b + 1) *
        (static_cast<double>(1LL << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<uint32_t>(b);
}

uint32_t ShardForDir(std::string_view dir_path, uint32_t shards) {
  if (shards <= 1) return 0;
  std::string norm = NormalizeDirPath(dir_path);
  // The root directory is replicated as a skeleton on every shard; its
  // canonical owner is shard 0 so ReadDir("/") has a stable home.
  if (norm == "/") return 0;
  return JumpConsistentHash(DirPlacementKey(norm), shards);
}

uint32_t ShardForFile(std::string_view file_path, uint32_t shards) {
  return ShardForDir(ParentDirPath(file_path), shards);
}

}  // namespace cffs::shard
