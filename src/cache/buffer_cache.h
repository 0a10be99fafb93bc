// Buffer cache, indexed by physical disk address.
//
// Paper §3: "C-FFS uses physical identities to insert newly-read blocks of
// a group into the cache without back-translating to discover their
// file/offset identities." InsertRun() does that for a group io::Readahead
// fetched with one scatter/gather disk command: every sibling block enters
// the cache under its physical address. The paper's cache also keeps a
// file/offset index; this one needs none, because every file read
// translates through the block map to a physical address first.
//
// Buffers are pinned through the RAII BufferRef handle; unpinned buffers are
// evicted in LRU order, writing dirty victims back first.
//
// The cache is a frame pool. A frame is a Buffer (the metadata) plus its
// 4 KB of data. Frames come from fixed-size slabs, allocated only as the
// cache first fills, and an evicted or invalidated frame goes back on a
// free list for the next miss, so a warm cache allocates nothing per
// access. The recency (LRU) list and the dirty list run through the frames
// themselves, and one open-addressing table (SlotIndex) maps block numbers
// to frames. When every resident frame is pinned, a miss does not fail: it
// takes a frame from a new slab and the cache goes over capacity until
// later misses evict it back down.
#ifndef CFFS_CACHE_BUFFER_CACHE_H_
#define CFFS_CACHE_BUFFER_CACHE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/slot_index.h"
#include "src/util/status.h"

namespace cffs::cache {

// Counter invariants (checked by stats::MetricsSnapshot::CheckInvariants):
// every lookup is either a hit or a miss, so hits + misses == lookups; and
// every staged block is eventually demanded or wasted, so
// readahead_hits + readahead_wasted <= readahead_staged (the remainder is
// still resident, awaiting its first demand access).
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t group_reads = 0;       // runs inserted by InsertRun
  uint64_t group_blocks = 0;      // blocks inserted by group fetches
  uint64_t writebacks = 0;        // blocks written by Sync*/eviction
  uint64_t evictions = 0;
  // Readahead accuracy (see io/readahead.h). Staged = inserted ahead of
  // demand; hit = first demand access found it resident; wasted = evicted,
  // invalidated or overwritten before any demand access.
  uint64_t readahead_staged = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_wasted = 0;
  void Reset() { *this = CacheStats{}; }
};

class BufferCache;

// Buffers with the same flush unit that are physically adjacent may be
// written with one disk command at flush time. The file systems tag data
// blocks with their write-clustering unit: FFS uses the owning file (within-
// file clustering only, as 4.4BSD did); C-FFS uses the group extent, which
// is what lets a whole group of small files go to disk as a single command.
inline constexpr uint64_t kNoFlushUnit = UINT64_MAX;

class Buffer {
 public:
  uint64_t bno() const { return bno_; }
  uint64_t flush_unit() const { return flush_unit_; }
  std::span<uint8_t> data() { return {data_, blk::kBlockSize}; }
  std::span<const uint8_t> data() const { return {data_, blk::kBlockSize}; }
  bool dirty() const { return dirty_; }
  // When this buffer last transitioned clean -> dirty (sim ns); meaningful
  // only while dirty(). The syncer ages dirty buffers off this.
  int64_t dirty_since_ns() const { return dirty_since_ns_; }
  // True for a readahead-staged block that no demand access has touched yet.
  bool staged() const { return staged_; }

 private:
  friend class BufferCache;
  // One link of an intrusive list through the frames.
  struct Links {
    Buffer* prev = nullptr;
    Buffer* next = nullptr;
  };

  Buffer() = default;

  uint8_t* data_ = nullptr;  // this frame's kBlockSize bytes in its slab
  uint64_t bno_ = 0;
  uint64_t flush_unit_ = kNoFlushUnit;
  int64_t dirty_since_ns_ = 0;
  Links lru_;          // on the recency list while resident
  Links dirty_links_;  // on the dirty list while dirty_
  uint32_t id_ = 0;    // frame number: what the block index stores
  int pins_ = 0;
  bool dirty_ = false;
  bool staged_ = false;
};

// RAII pin on a cached buffer. While a BufferRef is live the buffer cannot
// be evicted. Move-only.
class BufferRef {
 public:
  BufferRef() = default;
  BufferRef(BufferRef&& other) noexcept { *this = std::move(other); }
  BufferRef& operator=(BufferRef&& other) noexcept;
  BufferRef(const BufferRef&) = delete;
  BufferRef& operator=(const BufferRef&) = delete;
  ~BufferRef();

  Buffer* operator->() { return buf_; }
  const Buffer* operator->() const { return buf_; }
  Buffer& operator*() { return *buf_; }
  bool valid() const { return buf_ != nullptr; }
  std::span<uint8_t> data() { return buf_->data(); }
  std::span<const uint8_t> data() const {
    return static_cast<const Buffer*>(buf_)->data();
  }
  void Release();

 private:
  friend class BufferCache;
  BufferRef(BufferCache* cache, Buffer* buf) : cache_(cache), buf_(buf) {}
  BufferCache* cache_ = nullptr;
  Buffer* buf_ = nullptr;
};

class BufferCache {
 public:
  BufferCache(blk::BlockDevice* dev, size_t capacity_blocks);

  blk::BlockDevice* device() { return dev_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return index_.size(); }
  size_t dirty_count() const { return dirty_.size(); }
  CacheStats& stats() { return stats_; }

  // Emits hit/miss/eviction/group-read trace events. nullptr disables.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Counts buffer hits against the operation in flight (the work-avoided
  // column of the span attribution). nullptr disables.
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }

  // Fetch by physical address, reading from disk on a miss.
  Result<BufferRef> Get(uint64_t bno);

  // Fetch by physical address without any disk read: on a miss the buffer
  // is created zero-filled (for freshly allocated blocks that will be fully
  // overwritten).
  Result<BufferRef> GetZero(uint64_t bno);

  // Lookup by physical address; kNotFound if not resident (no I/O).
  Result<BufferRef> Lookup(uint64_t bno);

  // Insert `count` blocks of data read with one command (count *
  // kBlockSize bytes from an IoEngine::ReadRun) by physical
  // identity, each tagged with the run's flush unit. A block dirty on entry
  // or resident when reached keeps its cached (possibly newer) contents.
  // Inserted blocks other than `demand_bno` are marked staged for readahead
  // accuracy accounting. Counts one group read in stats().
  Status InsertRun(uint64_t start_bno, uint32_t count,
                   std::span<const uint8_t> data, uint64_t demand_bno);

  void MarkDirty(BufferRef& ref);

  // Tags the buffer's write-clustering unit (see kNoFlushUnit above).
  void SetFlushUnit(BufferRef& ref, uint64_t unit);

  // Write one dirty block through to disk immediately (synchronous
  // metadata update). No-op if the block is clean or not resident.
  Status SyncBlock(uint64_t bno);

  // Flush every dirty block, scheduler-ordered and run-coalesced.
  // Equivalent to WriteBatch(BuildFlushPlan()) + NoteFlushed(plan).
  Status SyncAll();

  // The write plan covering every dirty resident block: dirty blocks plus
  // clean gap-fillers that bridge small same-flush-unit gaps (so physically
  // near writes coalesce into one disk command), sorted by block number.
  // Shared by SyncAll() and the syncer's flush epochs.
  // The WriteOps alias buffer memory: the plan is invalidated by any cache
  // mutation and must be issued (or dropped) before the next operation.
  std::vector<blk::WriteOp> BuildFlushPlan();

  // Mark the dirty blocks covered by an issued plan clean and count the
  // writebacks. Returns how many dirty buffers were cleaned.
  size_t NoteFlushed(const std::vector<blk::WriteOp>& plan);

  // Sim time at which the oldest currently-dirty buffer became dirty, or
  // -1 if nothing is dirty. Drives the syncer's age deadline.
  int64_t oldest_dirty_ns() const;

  // Drop a resident block (when its disk space is freed). Dirty contents
  // are discarded. The block must not be pinned.
  void Invalidate(uint64_t bno);

  // Drop everything resident. All dirty data must have been synced first
  // (asserts). Used to make benchmark phases cold-cache.
  void InvalidateAll();

  // Simulates power loss: every buffer (dirty or clean) vanishes without
  // reaching the disk. Nothing may be pinned. Returns how many dirty
  // blocks were lost. Used by the crash-consistency harness.
  size_t CrashDropAll();

  // Snapshot of one dirty block: its address and a copy of its contents.
  struct DirtyBlock {
    uint64_t bno = 0;
    std::vector<uint8_t> data;  // kBlockSize bytes
  };

  // Copies of every dirty resident block, sorted by block number. Used by
  // the crash-state enumerator to materialize "these updates reached the
  // disk, those didn't" images without disturbing the cache.
  std::vector<DirtyBlock> DirtyBlocks() const;

  // Copies of the blocks a syncer flush epoch would write (BuildFlushPlan,
  // gap-fillers included), in the device scheduler's service order — i.e.
  // the order the blocks would reach the platter if the epoch's command
  // queue were interrupted mid-flight. Crash-enumerator input for
  // syncer-generated dirty queues.
  std::vector<DirtyBlock> FlushPlanBlocks();

 private:
  // A doubly linked list threaded through one Links member of each frame.
  template <Buffer::Links Buffer::*kLinks>
  class FrameList {
   public:
    Buffer* front() const { return front_; }
    Buffer* back() const { return back_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static Buffer* next(const Buffer* b) { return (b->*kLinks).next; }
    static Buffer* prev(const Buffer* b) { return (b->*kLinks).prev; }

    void push_front(Buffer* b) {
      b->*kLinks = {nullptr, front_};
      (front_ == nullptr ? back_ : (front_->*kLinks).prev) = b;
      front_ = b;
      ++size_;
    }
    void push_back(Buffer* b) {
      b->*kLinks = {back_, nullptr};
      (back_ == nullptr ? front_ : (back_->*kLinks).next) = b;
      back_ = b;
      ++size_;
    }
    void erase(Buffer* b) {
      const Buffer::Links& l = b->*kLinks;
      (l.prev == nullptr ? front_ : (l.prev->*kLinks).next) = l.next;
      (l.next == nullptr ? back_ : (l.next->*kLinks).prev) = l.prev;
      --size_;
    }
    void clear() { *this = FrameList(); }

   private:
    Buffer* front_ = nullptr;
    Buffer* back_ = nullptr;
    size_t size_ = 0;
  };

  // Frames come kSlabFrames at a time, metadata and data allocated apart
  // so the list and index walks stay in the small metadata array.
  static constexpr uint32_t kSlabFrames = 64;
  struct Slab {
    std::unique_ptr<Buffer[]> frames;
    std::unique_ptr<uint8_t[]> data;  // kSlabFrames * kBlockSize, not zeroed
  };

  Buffer* Frame(uint32_t id) {
    return &slabs_[id / kSlabFrames].frames[id % kSlabFrames];
  }
  Buffer* FindResident(uint64_t bno);
  // Ensures capacity for one more buffer; evicts LRU unpinned buffers.
  Status EvictIfNeeded();
  // Takes a free frame (adding a slab if none is left) for `bno`, indexes
  // it and makes it the most recent.
  Buffer* InsertNew(uint64_t bno);
  // Returns a resident, clean, unpinned frame to the free list.
  void Release(Buffer* buf);
  // Returns every resident frame to the free list, dropping its block
  // (dirty contents included).
  void ReleaseAll();
  void Touch(Buffer* buf);
  void Unpin(Buffer* buf);
  BufferRef Pin(Buffer* buf);
  void SetDirty(Buffer* buf, bool dirty);
  // Counts the hit/miss in stats_ and emits the matching trace instant.
  void NoteLookup(uint64_t bno, bool hit);
  // Demand access touched this buffer: clear staged, count the hit.
  void NoteDemand(Buffer* buf);
  // Buffer is leaving the cache (or being zero-overwritten) while still
  // staged: its prefetched contents were never used.
  void NoteStagedDropped(Buffer* buf);

  friend class BufferRef;

  blk::BlockDevice* dev_;
  size_t capacity_;
  CacheStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanTracker* spans_ = nullptr;

  std::vector<Slab> slabs_;
  std::vector<Buffer*> free_;  // frames holding no block
  SlotIndex index_;            // resident frames by block number
  FrameList<&Buffer::lru_> lru_;  // front = most recent
  // Exactly the dirty buffers, in clean->dirty transition order: the front
  // is the oldest, and flush plans walk only these.
  FrameList<&Buffer::dirty_links_> dirty_;
  std::vector<uint8_t> run_state_;  // InsertRun's per-block scratch
};

}  // namespace cffs::cache

#endif  // CFFS_CACHE_BUFFER_CACHE_H_
