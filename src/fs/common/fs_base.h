// FsBase: shared implementation core for the conventional FFS and C-FFS.
//
// Both file systems share the directory block format, the block-mapping
// logic, the read/write data paths and the namespace operations, written
// once over externalized inodes with the conventional ordered synchronous
// writes. They differ in where inodes live (static tables vs. embedded in
// directories / IFILE) and in allocation policy (plain cylinder-group vs.
// explicit grouping). Those differences are expressed through the
// protected virtual hooks below; C-FFS's embedded inodes override one step
// of each namespace operation.
#ifndef CFFS_FS_COMMON_FS_BASE_H_
#define CFFS_FS_COMMON_FS_BASE_H_

#include <memory>

#include "src/cache/buffer_cache.h"
#include "src/fs/common/allocator.h"
#include "src/fs/common/block_map.h"
#include "src/fs/common/dir_block.h"
#include "src/fs/common/file_system.h"
#include "src/fs/common/name_cache.h"
#include "src/io/readahead.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"

namespace cffs::fs {

class FsBase : public FileSystem {
 public:
  // Common FileSystem operations.
  Result<InodeNum> Lookup(InodeNum dir, std::string_view name) override;
  Result<InodeNum> Create(InodeNum dir, std::string_view name) final;
  Result<InodeNum> Mkdir(InodeNum dir, std::string_view name) final;
  Status Unlink(InodeNum dir, std::string_view name) final;
  Status Rmdir(InodeNum dir, std::string_view name) final;
  Status Link(InodeNum dir, std::string_view name, InodeNum target) final;
  Status Rename(InodeNum old_dir, std::string_view old_name, InodeNum new_dir,
                std::string_view new_name) final;
  Result<std::vector<DirEntryInfo>> ReadDir(InodeNum dir) override;
  Result<uint64_t> Read(InodeNum ino, uint64_t off,
                        std::span<uint8_t> out) override;
  Result<uint64_t> Write(InodeNum ino, uint64_t off,
                         std::span<const uint8_t> in) override;
  Status Truncate(InodeNum ino, uint64_t new_size) override;
  Result<Attr> GetAttr(InodeNum ino) override;
  // Writes the superblock, then every dirty block.
  Status Sync() override;
  FsOpStats& op_stats() override { return op_stats_; }

  MetadataPolicy metadata_policy() const { return policy_; }
  void set_metadata_policy(MetadataPolicy p) { policy_ = p; }
  cache::BufferCache* buffer_cache() { return cache_; }

  // Emits fs-op complete events, sync-metadata-write instants and
  // kMetaUpdate ordering annotations into the recorder, and forwards it to
  // the block allocator, whose free-map updates annotate too. nullptr
  // disables.
  void set_trace(obs::TraceRecorder* trace);

  // Opens a span per public operation (OpScope drives BeginOp/EndOp) and
  // counts dentry / inode-cache hits into it. nullptr disables. SimEnv
  // wires this alongside the other layers' set_spans.
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }
  obs::SpanTracker* spans() { return spans_; }

  // Deliberate ordering-discipline breakage for the analyzer's
  // false-negative self-test (see check::OrderingChecker). kNone in any
  // real configuration.
  enum class OrderingMutation : uint8_t {
    kNone,
    // Inode-before-name writes (create, mkdir, link of an external inode)
    // commit the dirent before the inode it names — the exact corruption
    // window the paper's rule #1 (and soft updates) exists to prevent.
    kDeferInodeInit,
  };
  void set_ordering_mutation_for_test(OrderingMutation m) { mutation_ = m; }
  OrderingMutation ordering_mutation() const { return mutation_; }

  // Monotonic id of the fs operation currently in flight (OpScope bumps
  // it). Annotations carry it so the checker can associate the writes of
  // one logical operation.
  uint64_t current_op_id() const { return op_seq_; }

  // Loads an inode image straight from the buffer cache (uncached); public
  // for fsck and tests. Operation paths go through GetInode() instead.
  virtual Result<InodeData> LoadInode(InodeNum num) = 0;

  // Name-resolution acceleration toggle (dentry cache + per-directory hash
  // index + inode cache; see fs/common/name_cache.h). On by default;
  // benchmarks switch it off to measure the ablation. Disabling drops all
  // cached state.
  void set_name_cache_enabled(bool enabled);
  bool name_cache_enabled() const { return name_cache_enabled_; }

  // The block allocator over the cylinder groups, for fsck, dumps and tests.
  CgAllocator* allocator() { return alloc_.get(); }

  // Derive mtimes from the operation sequence number instead of the
  // simulated clock, making on-disk images a function of operation order
  // alone. Allocation already depends only on op order, so two runs of the
  // same workload produce byte-identical disks even when their timing
  // differs (sync vs. delayed write-back) — the determinism test's lever.
  void set_deterministic_mtime(bool on) { deterministic_mtime_ = on; }
  bool deterministic_mtime() const { return deterministic_mtime_; }

 protected:
  // Every read that misses goes through `readahead`, which stages over the
  // same cache: C-FFS group fetches and the sequential cluster ramp for
  // both file systems (io/readahead.h). It must outlive the file system.
  // The concrete constructor creates alloc_ over its cylinder groups.
  FsBase(cache::BufferCache* cache, io::Readahead* readahead, SimClock* clock,
         MetadataPolicy policy)
      : cache_(cache), clock_(clock), policy_(policy), readahead_(readahead) {}

  // --- hooks the concrete file systems implement ---

  // Writes an inode image back. `order_critical` marks writes whose
  // sequencing protects metadata integrity: under kSynchronous policy they
  // go to disk immediately. Called only through StoreInode(), which keeps
  // the inode cache write-through coherent.
  virtual Status StoreInodeImpl(InodeNum num, const InodeData& ino,
                                bool order_critical) = 0;

  // Allocates up to `want` contiguous data blocks for file blocks starting
  // at `idx` of `ino` (updating any grouping state in *ino as a side
  // effect); may return fewer, but always at least one. Classic maps ask
  // for one block. `size_hint_blocks` is the file size the current
  // operation is known to reach (0 = unknown): it clamps extent runs, and
  // lets C-FFS route files already known to be large straight to ungrouped
  // storage instead of migrating them later. FFS, and C-FFS outside its
  // groups, place the data through AllocDataAt with their own goals.
  virtual Result<BlockRun> AllocData(InodeNum num, InodeData* ino,
                                     uint64_t idx, uint32_t want,
                                     uint64_t size_hint_blocks) = 0;

  // Allocates an indirect/metadata block near the file's data.
  virtual Result<uint32_t> AllocMetaBlock(InodeNum num, const InodeData& ino) = 0;
  virtual Status FreeBlock(uint32_t bno) = 0;

  // A fresh externalized inode for a new name in `dir`: returns its number
  // and sets *ino to its image (NewImage, `self` set). FFS takes a bit in
  // its inode bitmap, C-FFS an IFILE slot.
  virtual Result<InodeNum> NewInode(InodeNum dir, FileType type,
                                    InodeData* ino) = 0;
  // Releases a dead externalized inode: writes its cleared image (order-
  // critical), then frees the number (FFS's bitmap bit, C-FFS's slot).
  virtual Status ReleaseInode(InodeNum num) = 0;

  // Encodes the superblock into the cache (dirty; Sync writes it out).
  virtual Status WriteSuperblock() = 0;

  // Physical block holding `num`'s on-disk image: the static table slot
  // for FFS, the directory block (embedded) or IFILE block (external) for
  // C-FFS. The ordering checker treats a direct-map attach as committed
  // when this block reaches the disk.
  virtual Result<uint32_t> InodeHomeBlock(InodeNum num) = 0;

  // Called before reading data block `bno` of `ino`; C-FFS uses this to
  // fetch the whole group with one disk request.
  virtual Status PrepareDataRead(const InodeData& ino, uint32_t bno) {
    (void)ino;
    (void)bno;
    return OkStatus();
  }

  // Called after blocks were freed from `ino` (truncate, unlink, rmdir) so
  // C-FFS can release an idle group extent.
  virtual Status AfterBlocksFreed(InodeNum num, InodeData* ino) {
    (void)num;
    (void)ino;
    return OkStatus();
  }

  // Write-clustering unit for a dirty data block (see cache::kNoFlushUnit).
  // Default: the owning file — 4.4BSD-style within-file clustering. C-FFS
  // returns the group extent for grouped blocks.
  virtual uint64_t FlushUnitFor(InodeNum num, const InodeData& ino,
                                uint32_t bno) {
    (void)ino;
    (void)bno;
    return num;
  }

  // --- shared machinery ---

  // RAII scope around one public operation: it opens the op's span and, on
  // destruction, closes it and emits a kFsOp trace event. Opened at the top
  // of every public operation but ReadDir, GetAttr and SpaceInfo.
  class OpScope {
   public:
    OpScope(FsBase* fs, obs::FsOp op, InodeNum ino = kInvalidInode)
        : fs_(fs), op_(op), ino_(ino), start_ns_(fs->NowNs()) {
      ++fs->op_seq_;
      if (fs->spans_) fs->spans_->BeginOp(op, fs->op_seq_, start_ns_);
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;
    ~OpScope();

   private:
    FsBase* fs_;
    obs::FsOp op_;
    InodeNum ino_;
    int64_t start_ns_;
  };

  // Marks a metadata buffer dirty; under kSynchronous policy, order-critical
  // buffers are written through immediately.
  Status MetaDirty(cache::BufferRef& ref, bool order_critical);

  // Cached inode load: consults the inode cache, decoding via LoadInode()
  // only on a miss. Sets *from_cache when the caller wants to count saved
  // decodes (ReadDir does).
  Result<InodeData> GetInode(InodeNum num, bool* from_cache = nullptr);

  // Writes an inode image back via StoreInodeImpl and keeps the inode cache
  // write-through coherent (a free image invalidates the entry).
  Status StoreInode(InodeNum num, const InodeData& ino, bool order_critical);

  // --- explicit coherence hooks for paths that bypass StoreInode ---

  // Refreshes the cached image after an in-place encode (C-FFS writes
  // embedded inodes straight into directory blocks on create/rename).
  void NoteInodeWritten(InodeNum num, const InodeData& ino);
  // Drops a cached image whose on-disk home was destroyed or re-numbered
  // (embedded unlink, Link externalization, embedded rename).
  void NoteInodeGone(InodeNum num);
  // Drops all name-resolution state for a deleted directory (its inum may
  // be reused): dentries underneath it and its hash index.
  void NoteDirGone(InodeNum dir);
  // Drops one (dir, name) dentry whose target inode number changed in
  // place (C-FFS externalizes an embedded inode on Link, rewriting the
  // record to reference the new number).
  void NoteDentryGone(InodeNum dir, std::string_view name);

  // The block-map host for one inode during one operation: data comes
  // from AllocData with the operation's size hint, map blocks from
  // AllocMetaBlock, frees drop the cached copy before FreeBlock, and map
  // blocks are delayed writes.
  class MapHost final : public BmapHost {
   public:
    MapHost(FsBase* fs, InodeNum num, InodeData* ino,
            uint64_t size_hint_blocks = 0)
        : BmapHost(*fs->cache_),
          fs_(fs),
          num_(num),
          ino_(ino),
          size_hint_blocks_(size_hint_blocks) {}

    Result<BlockRun> AllocData(uint64_t idx, uint32_t want) override;
    Result<uint32_t> AllocMapBlock() override;
    Status FreeBlock(uint32_t bno) override;
    Status DirtyMapBlock(cache::BufferRef& ref) override;

   private:
    FsBase* fs_;
    InodeNum num_;
    InodeData* ino_;
    uint64_t size_hint_blocks_;
  };

  // The data placement both file systems share once they have chosen a
  // goal: one block from AllocNear for a classic map; for an extent map, a
  // run from AllocRun of up to `want` blocks, clamped to what the size hint
  // says the operation still needs (one block when the hint is unknown).
  Result<BlockRun> AllocDataAt(const InodeData& ino, uint32_t goal,
                               uint64_t idx, uint32_t want,
                               uint64_t size_hint_blocks);

  // The block after file block idx-1 when that one is mapped, else
  // `fallback`: sequential growth stays physically contiguous.
  uint32_t GoalAfterPrevious(const InodeData& ino, uint64_t idx,
                             uint32_t fallback);

  struct DirSlot {
    uint64_t file_idx = 0;  // which block of the directory
    uint32_t bno = 0;       // physical block
    DirRecord rec;          // note: name view dangles once the pin drops
  };

  // Finds `name` in the directory. kNotFound if absent. With the name
  // cache enabled this is one hashed probe into the directory's index
  // (built lazily with a single full scan); otherwise it is the classic
  // O(blocks x records) scan.
  Result<DirSlot> DirFind(const InodeData& dir, std::string_view name);

  // Adds an entry, extending the directory with a new block if necessary.
  // Marks the containing block dirty (not synced — the caller decides).
  // Sets *dir_dirtied if the directory inode changed (size growth).
  // Maintains the directory index and erases any (dir, name) dentry — the
  // next Lookup repopulates from the authoritative block.
  Result<DirSlot> DirAdd(InodeNum dir_num, InodeData* dir,
                         std::string_view name, uint8_t kind, InodeNum inum,
                         const InodeData* embedded, bool* dir_dirtied);

  // Removes the record `slot` found for `name`; marks the block dirty.
  // Maintains the directory index and installs a NEGATIVE dentry so a
  // lookup-after-unlink answers kNotFound without touching the directory.
  // The inode the record named is carried on the kDentryRemove ordering
  // annotation so the checker can pair the removal with the subsequent
  // inode/block frees of the same operation.
  Status DirRemove(InodeNum dir_num, std::string_view name,
                   const DirSlot& slot);

  Result<bool> DirIsEmpty(const InodeData& dir);

  // Rejects a rename that would move a directory into itself or one of its
  // descendants (walks new_dir's parent chain looking for `moved`).
  Status CheckRenameLoop(InodeNum moved, InodeNum new_dir);

  // Write-through one metadata block if the policy demands it.
  Status SyncMetaBlock(uint32_t bno, bool order_critical);

  // --- the namespace operations' steps ---
  //
  // Each operation checks its arguments, then runs its one step that
  // depends on where the inode lives. The defaults are the conventional
  // ordered writes over an externalized inode; C-FFS overrides each for
  // embedded inodes and falls back to these for external ones. *grown is
  // set when the directory `d` gaining a name gained a block; the operation
  // then stores `d` (order-critical) once the step is done.

  // Create and mkdir: a fresh inode (NewInode), then its name (AddName).
  virtual Result<InodeNum> CreateStep(InodeNum dir, InodeData* d,
                                      std::string_view name, FileType type,
                                      bool* grown);
  // Unlink of `ino`, named by `slot`: the name goes first; a last link
  // then writes the zero-length inode and releases it.
  virtual Status UnlinkStep(InodeNum dir, std::string_view name,
                            const DirSlot& slot, InodeData* ino);
  // Link: the target's raised link count, then the new name.
  virtual Status LinkStep(InodeNum dir, InodeData* d, std::string_view name,
                          InodeNum target, InodeData* tino, bool* grown);
  // Rename: the new name for `inum` in new_dir (the old name goes after),
  // then the moved inode's parent.
  virtual Status RenameStep(InodeNum inum, InodeNum new_dir, InodeData* nd,
                            std::string_view new_name, bool* grown);

  // A new inode's image: one link, named in `dir`, stamped now, mapped with
  // extents when `extents`; `self` is the caller's to set.
  InodeData NewImage(InodeNum dir, FileType type, bool extents) const;

  // Adds an external record naming `inum` to `dir` and writes its block.
  // With `ino`, the inode's image is stored first: inode before name, so a
  // crash between the two writes leaves an unnamed inode, never a name
  // without one.
  Status AddName(InodeNum dir, InodeData* d, std::string_view name,
                 InodeNum inum, const InodeData* ino, bool* grown);

  // Truncates `ino` to no blocks, then lets AfterBlocksFreed run.
  Status FreeAllBlocks(InodeNum num, InodeData* ino);

  // Emits one kMetaUpdate ordering annotation: the mutation of `kind`
  // about `subject` now sits dirty in cached block `home_bno`. See
  // obs::MetaUpdateKind for the field conventions.
  void TraceMeta(obs::MetaUpdateKind kind, uint64_t home_bno,
                 uint64_t subject, uint64_t aux = 0, bool flag = false);

  int64_t NowNs() const { return clock_->now().nanos(); }
  // What to stamp into an inode's mtime field (see set_deterministic_mtime).
  int64_t MtimeNs() const {
    return deterministic_mtime_ ? static_cast<int64_t>(op_seq_) : NowNs();
  }

  cache::BufferCache* cache_;
  SimClock* clock_;
  MetadataPolicy policy_;
  FsOpStats op_stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanTracker* spans_ = nullptr;
  io::Readahead* readahead_;
  std::unique_ptr<CgAllocator> alloc_;
  OrderingMutation mutation_ = OrderingMutation::kNone;
  uint64_t op_seq_ = 0;
  bool deterministic_mtime_ = false;

 private:
  // Fetches one directory block for DirFind/BuildDirIndex (counts it and
  // triggers the C-FFS group fetch first).
  Result<cache::BufferRef> DirBlockGet(const InodeData& dir, uint32_t bno);
  // Full scan of `dir` that records every name's location; installs and
  // returns the index (nullptr only if indexing is off or the scan failed).
  Result<DirIndexCache::Index*> BuildDirIndex(const InodeData& dir);
  // Index-probe fast path of DirFind; kUnsupported means "fall back to the
  // linear scan" (index disabled, unbuildable, or found stale).
  Result<DirSlot> DirFindIndexed(const InodeData& dir, std::string_view name);
  void TraceDentry(InodeNum dir, bool hit, bool negative);
  // Create and Mkdir after the op's scope is open.
  Result<InodeNum> MakeNode(InodeNum dir, std::string_view name,
                            FileType type);

  NameCache name_cache_;
  bool name_cache_enabled_ = true;
};

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_FS_BASE_H_
