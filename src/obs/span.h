// Cross-layer operation spans with exact latency attribution.
//
// Every advance of the simulation clock is charged to exactly one typed
// phase of exactly one sink — the file-system operation in flight, the
// pre-op boundary window that the *next* operation absorbs, or the
// background bucket (mount/format I/O that belongs to no operation). That
// construction makes the headline invariant exact, not approximate:
//
//     sum(phase times of an op) == its end-to-end latency, to the ns.
//
// Phases:
//   cpu            host CPU charged at the op boundary (SimEnv::ChargeCpu)
//   cache_hit      buffer-cache / dentry / inode-cache hits. Hits cost no
//                  simulated time, so this phase carries counts, not ns —
//                  it is the "work avoided" column of the attribution.
//   queue_wait     deadline flushes absorbed at the op boundary
//   throttle_stall writer stalled at the dirty high-watermark while the
//                  syncer flushed (the kIoThrottle duration)
//   seek           disk arm movement           +
//   rotation       rotational positioning      |  per-command breakdown
//   transfer       media/bus transfer          |  mirrored from DiskStats
//   overhead       command overhead            +
//   channel_wait   flash: command queued behind the critical channel's
//                  earlier work (queue-depth / channel-skew overlap time)
//   program        flash: page programs on the critical channel
//   erase          flash: erase-block reclaims on the critical channel
//
// The flash phases mirror FlashStats the same way the mechanical phases
// mirror DiskStats: FlashDevice decomposes each command window along the
// critical (last-finishing) channel, so overhead + channel_wait + transfer
// (flash reads) + program + erase == the clock advance, exactly.
//
// The SpanTracker is wired by sim::SimEnv the same way TraceRecorder is
// (set_spans on each layer); all emit sites are `if (spans_)`-guarded, so
// an unwired stack pays nothing.
//
// OpContext is the per-operation record: op id (fs sequence number), op
// type, client id (set by the multi-tenant driver; 0 for single-client
// runs), phase times, and a bounded list of time segments for span-tree
// rendering (tools/cffs_run). Completed ops feed per-op-type aggregates
// (PhaseBreakdown, embedded in stats::MetricsSnapshot) and a top-N
// slowest-op list.
#ifndef CFFS_OBS_SPAN_H_
#define CFFS_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/util/histogram.h"

namespace cffs::obs {

enum class Phase : uint8_t {
  kCpu = 0,
  kCacheHit,
  kQueueWait,
  kThrottleStall,
  kSeek,
  kRotation,
  kTransfer,
  kOverhead,
  kChannelWait,  // flash: issued behind earlier work on the critical channel
  kProgram,      // flash: page program time
  kErase,        // flash: erase-block reclaim time
};

inline constexpr int kPhaseCount = 11;

const char* PhaseName(Phase p);

// Time and occurrence counts per phase. ns[kCacheHit] is always 0 (hits
// are free in simulated time); count[kCacheHit] is the hit count.
struct PhaseTimes {
  std::array<int64_t, kPhaseCount> ns{};
  std::array<uint64_t, kPhaseCount> count{};

  int64_t TotalNs() const;
  void Add(Phase p, int64_t dur_ns);
  void Merge(const PhaseTimes& other);
  void Reset() { *this = PhaseTimes{}; }
  Json ToJson() const;
};

// One contiguous slice of an op's timeline, for span-tree rendering.
// Adjacent same-phase slices are merged; an op keeps at most
// SpanTracker::kMaxSegments of them (the rest are counted, not stored —
// the PhaseTimes stay exact regardless).
struct SpanSegment {
  Phase phase = Phase::kCpu;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t detail = 0;  // disk phases: lba; 0 otherwise
};

// Per-operation context: identity plus the attribution ledger.
struct OpContext {
  uint64_t op_id = 0;        // fs operation sequence number
  FsOp op = FsOp::kOther;
  uint64_t client_id = 0;    // mt::MtDriver's client; 0 for one client
  int64_t start_ns = 0;      // includes the absorbed pre-op boundary window
  int64_t end_ns = 0;
  PhaseTimes phases;
  std::vector<SpanSegment> segments;
  uint32_t segments_dropped = 0;

  int64_t e2e_ns() const { return end_ns - start_ns; }
  int64_t residual_ns() const { return e2e_ns() - phases.TotalNs(); }
};

// Ops with per-type aggregates: every FsOp except kOther.
inline constexpr int kTrackedOps = 11;
// Index into PhaseBreakdown::per_op, or -1 for untracked (kOther).
int TrackedOpIndex(FsOp op);
FsOp TrackedOpAt(int index);

// Aggregates for one op type: the end-to-end latency distribution and the
// exact per-phase totals, which sum to e2e_total_ns. Where the time of one
// slow op went is the slowest-op span trees' question, not a per-phase
// percentile's (the p99 of seek times is not the p99 op's seek time).
struct OpTypeBreakdown {
  LatencyHistogram e2e;
  int64_t e2e_total_ns = 0;  // exact sum (histogram mean rounds)
  PhaseTimes totals;

  uint64_t count() const { return e2e.count(); }
  void Reset() { *this = OpTypeBreakdown{}; }
};

// Per-client attribution aggregate (multi-tenant runs). Every finished op
// is credited to its OpContext client id, so per-client phase sums inherit
// the headline invariant: sum(totals) == e2e_total, to the ns.
struct ClientBreakdown {
  uint64_t client_id = 0;
  uint64_t ops = 0;
  int64_t e2e_total_ns = 0;  // exact sum of per-op e2e latencies
  PhaseTimes totals;
  LatencyHistogram e2e;
};

// The one latency-histogram summary every report carries: count, mean,
// p50/p99/p999 and max, in ns. Bucket counts stay in memory.
Json ToJson(const LatencyHistogram& h);

// The per-op-type attribution aggregate embedded in MetricsSnapshot.
struct PhaseBreakdown {
  std::array<OpTypeBreakdown, kTrackedOps> per_op;
  PhaseTimes background;  // clock time attributed to no op (mount/format)
  uint64_t ops_finished = 0;
  uint64_t invariant_violations = 0;  // ops whose phases != e2e
  int64_t max_residual_ns = 0;        // largest |residual| seen
  // Indexed by client id; empty unless EnableClientBreakdown was called.
  std::vector<ClientBreakdown> per_client;

  const OpTypeBreakdown* ForOp(FsOp op) const;
  Json ToJson() const;
  void Reset() { *this = PhaseBreakdown{}; }
};

class SpanTracker {
 public:
  static constexpr size_t kMaxSegments = 64;
  static constexpr size_t kDefaultTopN = 16;

  // --- op lifecycle (driven by fs::FsBase::OpScope) ---

  // Opens the span for op `op_id` at `now_ns`. A depth-0 begin claims the
  // open boundary window (extending the span start backwards over the
  // pre-op CPU charge / syncer stall); nested begins stack, and a child's
  // phases fold into its parent at EndOp so the parent stays exact.
  void BeginOp(FsOp op, uint64_t op_id, int64_t now_ns);
  void EndOp(int64_t now_ns);

  // Marks an op boundary (SimEnv::ChargeCpu): until the next depth-0
  // BeginOp, attributed time accumulates in a pending window that the next
  // op absorbs — the CPU charged for a call and any throttle stall taken
  // on its behalf belong to that call's span.
  void OpenBoundary(int64_t now_ns);

  // --- attribution (every simulated-clock advance goes through here) ---

  // Charges `dur_ns` starting at `start_ns` to `phase` (or to the active
  // override phase) on the current sink: innermost open op, else the
  // pending boundary window, else background.
  void Attribute(Phase phase, int64_t dur_ns, int64_t start_ns,
                 uint64_t detail = 0);
  // One disk command's exact breakdown (deltas of DiskStats over the
  // command; they sum to the clock advance by construction).
  void AttributeDisk(int64_t start_ns, int64_t seek_ns, int64_t rotation_ns,
                     int64_t transfer_ns, int64_t overhead_ns, uint64_t lba);
  // One flash command window's exact breakdown along the critical channel
  // (see FlashDevice): overhead + wait + read + program + erase == the
  // clock advance. Reads land in kTransfer (they are data transfer); the
  // flash-only phases get their own buckets.
  void AttributeFlash(int64_t start_ns, int64_t overhead_ns, int64_t wait_ns,
                      int64_t read_ns, int64_t program_ns, int64_t erase_ns,
                      uint64_t lba);
  // Counts a zero-duration cache hit on the current sink.
  void CountHit();

  // Reclassifies everything attributed while in scope (throttle flushes →
  // kThrottleStall, background deadline flushes → kQueueWait). The
  // outermost override wins; nested scopes keep the existing phase. Null
  // tracker is a no-op, so call sites can pass their maybe-unwired
  // pointer directly.
  class OverrideScope {
   public:
    OverrideScope(SpanTracker* tracker, Phase phase);
    ~OverrideScope();
    OverrideScope(const OverrideScope&) = delete;
    OverrideScope& operator=(const OverrideScope&) = delete;

   private:
    SpanTracker* tracker_;
    std::optional<Phase> saved_;
    bool installed_ = false;
  };

  // --- results ---

  const PhaseBreakdown& breakdown() const { return agg_; }
  // Completed ops with the largest end-to-end latency, sorted descending.
  std::vector<OpContext> SlowestOps() const;
  void set_top_n(size_t n);
  void set_client_id(uint64_t id) { client_id_ = id; }
  uint64_t client_id() const { return client_id_; }

  // Turns on per-client aggregation (survives Reset). Client ids are
  // expected dense from 0; ids at or above `max_clients` are clamped into
  // the last slot so the ops-sum invariant still holds.
  void EnableClientBreakdown(size_t max_clients = 65536) {
    client_track_ = true;
    client_cap_ = max_clients > 0 ? max_clients : 1;
  }
  bool client_breakdown_enabled() const { return client_track_; }

  // Clears aggregates, the top-N list, the background bucket and any open
  // boundary window. Must not be called with an op in flight.
  void Reset();

 private:
  friend class OverrideScope;

  void AddToSink(Phase phase, int64_t dur_ns, int64_t start_ns,
                 uint64_t detail);
  static void AddSegment(OpContext* ctx, Phase phase, int64_t start_ns,
                         int64_t dur_ns, uint64_t detail);
  void ConsiderSlowest(const OpContext& done);

  std::vector<OpContext> stack_;
  OpContext pending_;        // the open boundary window (valid iff below)
  bool pending_open_ = false;
  std::optional<Phase> override_;
  uint64_t client_id_ = 0;
  bool client_track_ = false;
  size_t client_cap_ = 65536;

  PhaseBreakdown agg_;
  std::vector<OpContext> slowest_;  // unordered; sorted on query
  size_t top_n_ = kDefaultTopN;
};

}  // namespace cffs::obs

#endif  // CFFS_OBS_SPAN_H_
