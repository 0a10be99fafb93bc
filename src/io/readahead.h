// Group-granular readahead with a sequential ramp.
//
// Two prefetch shapes, both read through the IoEngine and inserted into
// the buffer cache by physical address (paper §3: group blocks enter the
// cache without back-translating to their file/offset identities; a later
// file read finds them by translating through the block map):
//
//   - StageGroup: C-FFS stage-on-miss. A data-block miss inside a live
//     group fetches the WHOLE group extent with one disk command — the
//     paper's group read, and its only implementation.
//   - StageRun: sequential ramp for large files. A miss at the next
//     expected file block doubles the cluster window (kMinWindow up to
//     kMaxWindow, FreeBSD cluster_read-style); any non-sequential miss
//     resets it. kMinWindow is the classic 64 KB cluster, which the window
//     grows past once a streak is established.
//
// Accuracy is accounted in the cache, which owns block lifetime: every
// staged block is eventually a hit (first demand access found it) or
// wasted (evicted/invalidated untouched) — see CacheStats.
#ifndef CFFS_IO_READAHEAD_H_
#define CFFS_IO_READAHEAD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/io/io_engine.h"
#include "src/io/io_stats.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace cffs::io {

class Readahead {
 public:
  static constexpr uint32_t kMinWindow = 16;  // blocks: 64 KB
  static constexpr uint32_t kMaxWindow = 64;  // ramp ceiling (blocks)

  Readahead(cache::BufferCache* cache, IoEngine* engine);

  ReadaheadStats& stats() { return stats_; }
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Cluster-window cap for a miss at file block `idx`, updating the ramp
  // state: a miss at the stream's expected next block doubles the window,
  // anything else resets it to kMinWindow.
  uint32_t WindowFor(uint64_t file, uint64_t idx);

  // Record the run actually fetched for the miss at `idx`, so the next
  // miss at idx + run is recognized as sequential.
  void NoteRun(uint64_t file, uint64_t idx, uint32_t run);

  // Fetch a whole group extent with one command and stage it; the demanded
  // block is inserted un-staged (it is about to be accessed).
  Status StageGroup(uint64_t extent_start, uint32_t count, uint64_t demand_bno);

  // Fetch a physically contiguous run starting at the demanded block.
  Status StageRun(uint64_t start_bno, uint32_t count, uint64_t demand_bno);

  // Forget all per-file stream state (remount, crash, cold cache).
  void Reset() { streams_.clear(); }

 private:
  struct Stream {
    uint64_t next_idx = 0;  // file block a sequential miss would hit next
    uint32_t window = 0;
  };

  Status Stage(uint64_t start_bno, uint32_t count, uint64_t demand_bno,
               bool group);

  cache::BufferCache* cache_;
  IoEngine* engine_;
  ReadaheadStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::unordered_map<uint64_t, Stream> streams_;
  std::vector<uint8_t> bounce_;  // Stage's read buffer, kept across calls
};

}  // namespace cffs::io

#endif  // CFFS_IO_READAHEAD_H_
