// Event tracing for the simulated storage stack.
//
// Every layer — file system, buffer cache, block device, disk model — can
// emit typed events into one bounded TraceRecorder ring buffer (oldest
// events are dropped once full, with a drop count kept). The recorder
// exports Chrome trace-event JSON, so a run can be opened directly in
// perfetto / chrome://tracing with one lane per layer:
//
//   tid 1  fs ops          complete events (Lookup/Create/Read/...), plus
//                          synchronous-metadata-write instants
//   tid 2  buffer cache    hit / miss / eviction instants
//   tid 3  disk            one complete event per disk command, with the
//                          seek / rotation / transfer / overhead breakdown
//                          in args; write-batch summaries
//   tid 4  io engine       syncer flush epochs, readahead stages, writer
//                          throttle instants
//
// Timestamps are simulated time. Recording costs nothing when no recorder
// is attached (all emit sites are `if (trace_)`-guarded).
#ifndef CFFS_OBS_TRACE_H_
#define CFFS_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cffs::obs {

enum class EventKind : uint8_t {
  kFsOp,           // one complete file-system operation (dur = latency)
  kSyncMetaWrite,  // synchronous metadata write-through (ordered update)
  kCacheHit,       // buffer-cache lookup served from memory
  kCacheMiss,      // buffer-cache lookup that went to the device
  kCacheEvict,     // LRU eviction (flag = victim was dirty)
  kDiskIo,         // one disk command (flag = write, hit = on-board cache)
  kWriteBatch,     // scheduler-ordered write-back batch summary
  kDentryLookup,   // dentry-cache consult (flag = hit, hit = negative)
  kDirIndexBuild,  // lazy full-scan build of a per-directory name index
  kMetaUpdate,     // logical metadata mutation landed in a cached block
  kBlockWrite,     // one write command committed blocks [a, a+b) to disk
  kSyncerFlush,    // background write-back epoch (a = dirty blocks cleaned,
                   // b = plan size incl. gap fills, aux = trigger: 0 explicit,
                   // 1 deadline, 2 throttle)
  kReadaheadStage, // prefetch staged blocks [a, a+b) (flag = group stage,
                   // else sequential ramp)
  kIoThrottle,     // writer throttled at the dirty high-watermark
                   // (a = dirty count at the time, dur = stall time the
                   // flush cost the writer)
  kCounterSample,  // periodic telemetry gauges (see obs/sampler.h):
                   // b = dirty blocks, aux = resident blocks, op_id =
                   // throttle flushes since last sample, seek_ns = disk
                   // busy permille over the interval.
                   // Rendered as Chrome counter tracks (ph "C").
  kFlashIo,        // one flash command window (flag = write; a = first
                   // block, b = block count, aux = commit epoch for
                   // writes). Critical-channel time breakdown in wait_ns /
                   // transfer_ns (reads) / program_ns / erase_ns /
                   // overhead_ns; they sum to dur_ns exactly.
};

// What a kMetaUpdate event dirtied. Together with the home block number
// this gives each buffered metadata mutation a logical identity, which is
// what lets check::OrderingChecker replay the write stream like a race
// detector: it joins these annotations against the kBlockWrite commit
// stream and verifies the FFS/C-FFS happens-before rules.
enum class MetaUpdateKind : uint8_t {
  kNone,
  kInodeInit,     // inode transitioned free -> allocated (b = inum)
  kInodeUpdate,   // allocated inode rewritten in place (b = inum)
  kInodeFree,     // inode transitioned allocated -> free (b = inum)
  kDentryAdd,     // directory entry naming inode b added (aux = dir inum)
  kDentryRemove,  // directory entry naming inode b removed (aux = dir inum)
  kFreeMapAlloc,  // free-map bit set for block b (a = bitmap block)
  kFreeMapFree,   // free-map bit cleared for block b (a = bitmap block)
  kMapUpdate,     // block aux attached to inode b's map (flag = grouped)
  kInodeMapUpdate,  // inode-allocation bitmap block rewritten (b = inum)
  kResvUpdate,    // allocator reservation state changed (b = start block)
  kSuperUpdate,   // superblock rewritten (a = home block)
  // Cross-shard rename protocol annotations emitted by shard::ShardRouter
  // (a = shard id, b = transaction id, aux = protocol role, op_id = a
  // router-wide step stamp — NOT an fs op sequence number). They have no
  // home block, so the per-shard OrderingChecker ignores them; the
  // cross-shard checker (check/xshard.h) joins them across shard traces.
  kShardPrepare,  // prepare record staged (aux: 0 = src side, 1 = dst side)
  kShardCommit,   // commit record staged — the transaction's commit point
  kShardClear,    // records cleared (aux: 3 = src side, 4 = dst side)
  kShardBarrier,  // the acting shard synced; seals prior shard annotations
};

const char* MetaUpdateName(MetaUpdateKind kind);

// File-system operations that are individually timed. Every one but kOther
// has per-type latency histograms in the span attribution (obs/span.h).
enum class FsOp : uint8_t {
  kLookup,
  kCreate,
  kRead,
  kWrite,
  kSync,
  kMkdir,
  kUnlink,
  kTruncate,
  kRmdir,
  kLink,
  kRename,
  kOther,
};

const char* FsOpName(FsOp op);

struct TraceEvent {
  EventKind kind = EventKind::kFsOp;
  int64_t ts_ns = 0;   // simulated begin time
  int64_t dur_ns = 0;  // 0 for instants
  FsOp op = FsOp::kOther;
  bool flag = false;   // kDiskIo: is-write; kCacheEvict: victim dirty;
                       // kMetaUpdate kDentryAdd: names an embedded inode;
                       // kMetaUpdate kMapUpdate: block is inside a group
  bool hit = false;    // kDiskIo: served by the on-board segment cache
  uint64_t a = 0;      // lba / bno / inode — primary subject.
                       // kMetaUpdate: home block the mutation lives in.
                       // kBlockWrite: first block of the command.
  uint64_t b = 0;      // sectors / block count — size of the subject.
                       // kMetaUpdate: subject inum (or bno for free-map).
                       // kBlockWrite: number of blocks committed.
  // Ordering-analysis payload.
  MetaUpdateKind meta = MetaUpdateKind::kNone;  // kMetaUpdate only
  uint64_t op_id = 0;  // kMetaUpdate: fs operation sequence number
  uint64_t aux = 0;    // kMetaUpdate: kind-specific extra subject
                       // (dir inum / attached bno); kBlockWrite: commit
                       // epoch — commands in one scheduler batch share it
  // Per-command disk time breakdown (kDiskIo only; transfer_ns and
  // overhead_ns are shared with kFlashIo).
  int64_t seek_ns = 0;
  int64_t rotation_ns = 0;
  int64_t transfer_ns = 0;
  int64_t overhead_ns = 0;
  // Per-command flash time breakdown (kFlashIo only; see src/flash).
  int64_t wait_ns = 0;
  int64_t program_ns = 0;
  int64_t erase_ns = 0;
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 16;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  void Record(const TraceEvent& e);

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return count_; }
  uint64_t dropped() const { return dropped_; }
  void Clear();

  // Events in chronological (insertion) order.
  std::vector<TraceEvent> Events() const;

  // Chrome trace-event JSON: {"traceEvents": [...], ...}. Loadable in
  // perfetto and chrome://tracing. `ts` is microseconds of simulated time.
  std::string ToChromeJson() const;

  // Lossless record-format JSON (cffs-trace-v3): every TraceEvent field
  // serialized verbatim, so a dumped trace can be re-loaded and fed to the
  // offline analyzers (tools/cffs_ordercheck). Chrome JSON is for humans;
  // this is for machines.
  std::string ToRecordJson() const;

  // Parses ToRecordJson output back into the event stream. The returned
  // recorder's capacity is max(event count, 1) and dropped() reflects the
  // drop count recorded at dump time. A dump of any other format version
  // (cffs-trace-v1 numbered its event kinds differently, cffs-trace-v2 its
  // fs ops) is InvalidArgument, naming the version.
  static Result<TraceRecorder> FromRecordJson(std::string_view text);

 private:
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;      // slot the next event lands in
  size_t count_ = 0;     // number of valid events (<= capacity)
  uint64_t dropped_ = 0; // events overwritten after the ring filled
};

}  // namespace cffs::obs

#endif  // CFFS_OBS_TRACE_H_
