// Name-resolution acceleration: per-mount caches that remove the repeated
// decode/scan work from the lookup path.
//
// Three structures, owned by FsBase and dropped on unmount (so a remount
// always starts cold — an explicit coherence property the tests rely on).
// All three sit on one bounded table type, FlatLru (src/util/flat_lru.h):
// a slot vector, an open-addressing index and an intrusive recency list,
// so a warm cache allocates nothing to look up, refresh or evict an entry.
//
// * DentryCache — bounded LRU keyed by (directory inum, name) mapping to
//   the child's inode number. Holds POSITIVE entries ("x resolves to 17")
//   and NEGATIVE entries ("x does not exist"), so both the hot-resolve and
//   the miss-heavy paths skip the directory scan entirely. Mutations never
//   insert positive entries directly; they either erase the key (DirAdd —
//   the next lookup repopulates from the authoritative block) or convert it
//   to a negative entry (DirRemove). This "mutations invalidate, lookups
//   populate" rule keeps coherence one-directional and easy to audit.
//
// * DirIndexCache — a lazily-built hash index per directory mapping name to
//   the record's location (file block index, physical block, record
//   offset). Directory records never move once created (see dir_block.h),
//   so a location stays valid until that exact name is removed; DirAdd and
//   DirRemove maintain the index incrementally. A cold DirFind builds the
//   index with one full scan and every later DirFind is a single hashed
//   probe + one block fetch instead of an O(blocks x records) scan. The
//   index is complete by construction, so a probe miss is an authoritative
//   kNotFound.
//
// * InodeCache — bounded LRU of decoded InodeData images keyed by inode
//   number, refreshed write-through by every StoreInode. An entry must be
//   invalidated whenever the on-disk image changes by any other route; the
//   C-FFS embedded-inode paths (create/rename encode the image straight
//   into the directory block, Link externalizes it, Rename assigns a NEW
//   inode number because the number encodes the physical location) call
//   the invalidation hooks explicitly.
//
// The structures are purely mechanical; hit/miss accounting lives in
// fs::FsOpStats so it flows into MetricsSnapshot and its invariants.
#ifndef CFFS_FS_COMMON_NAME_CACHE_H_
#define CFFS_FS_COMMON_NAME_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/fs/common/fs_types.h"
#include "src/fs/common/inode.h"
#include "src/util/flat_lru.h"

namespace cffs::fs {

class DentryCache {
 public:
  struct Entry {
    InodeNum inum = kInvalidInode;
    bool negative = false;
  };

  explicit DentryCache(size_t capacity) : lru_(capacity) {}

  // nullptr on miss. A returned pointer is valid until the next mutation.
  const Entry* Lookup(InodeNum dir, std::string_view name) {
    return lru_.Lookup({dir, name});
  }

  void PutPositive(InodeNum dir, std::string_view name, InodeNum inum) {
    lru_.Put({dir, name}, Entry{inum, /*negative=*/false});
  }
  void PutNegative(InodeNum dir, std::string_view name) {
    lru_.Put({dir, name}, Entry{kInvalidInode, /*negative=*/true});
  }
  void Erase(InodeNum dir, std::string_view name) { lru_.Erase({dir, name}); }
  // Drops every entry under `dir` (directory deletion / inum reuse).
  void EraseDir(InodeNum dir) {
    lru_.EraseIf([dir](const Key& k) { return k.dir == dir; });
  }
  void Clear() { lru_.Clear(); }

  size_t size() const { return lru_.size(); }

 private:
  // Probes hash and compare (dir, string_view); only an insert copies the
  // name into a stored Key.
  struct KeyView {
    InodeNum dir;
    std::string_view name;
  };
  struct Key {
    Key() = default;
    explicit Key(const KeyView& v) : dir(v.dir), name(v.name) {}
    bool operator==(const KeyView& v) const {
      return dir == v.dir && name == v.name;
    }
    InodeNum dir = kInvalidInode;
    std::string name;
  };
  struct KeyHash {
    size_t operator()(const KeyView& k) const {
      return std::hash<std::string_view>()(k.name) ^
             (k.dir * 0x9e3779b97f4a7c15ULL);
    }
  };

  FlatLru<Key, Entry, KeyHash, KeyView> lru_;
};

// Location of one directory record; enough to re-read it with a single
// block fetch. Records never move, so the location is stable for the
// lifetime of the name.
struct DirEntryLoc {
  uint64_t file_idx = 0;  // which block of the directory file
  uint32_t bno = 0;       // physical block
  uint16_t offset = 0;    // record start within the block
};

class DirIndexCache {
 public:
  struct Index {
    std::unordered_map<std::string, DirEntryLoc> by_name;
  };

  explicit DirIndexCache(size_t max_dirs) : lru_(max_dirs) {}

  // The index for `dir` if one has been built (touches LRU), else nullptr.
  Index* Find(InodeNum dir) { return lru_.Lookup(dir); }
  // Registers a freshly built index (evicting the LRU directory if full)
  // and returns it.
  Index* Install(InodeNum dir, Index index) {
    return lru_.Put(dir, std::move(index));
  }
  // Incremental maintenance of an index that exists; neither call changes
  // which directory is evicted next.
  void Add(InodeNum dir, std::string_view name, const DirEntryLoc& loc) {
    if (Index* idx = lru_.Peek(dir)) idx->by_name[std::string(name)] = loc;
  }
  void Remove(InodeNum dir, std::string_view name) {
    if (Index* idx = lru_.Peek(dir)) idx->by_name.erase(std::string(name));
  }
  // Drops the whole index for `dir` (deletion, or a detected stale probe).
  void EraseDir(InodeNum dir) { lru_.Erase(dir); }
  void Clear() { lru_.Clear(); }

  size_t size() const { return lru_.size(); }

 private:
  FlatLru<InodeNum, Index, std::hash<InodeNum>> lru_;
};

// Lookup returns nullptr on a miss; a returned pointer is valid until the
// next mutation.
using InodeCache = FlatLru<InodeNum, InodeData, std::hash<InodeNum>>;

// The three caches as one per-mount unit with shared sizing defaults.
struct NameCache {
  static constexpr size_t kDefaultDentries = 8192;
  static constexpr size_t kDefaultDirIndexes = 128;
  static constexpr size_t kDefaultInodes = 2048;

  DentryCache dentries{kDefaultDentries};
  DirIndexCache dir_indexes{kDefaultDirIndexes};
  InodeCache inodes{kDefaultInodes};

  void Clear() {
    dentries.Clear();
    dir_indexes.Clear();
    inodes.Clear();
  }
};

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_NAME_CACHE_H_
