// Deadline syncer: background write-back for delayed metadata/data.
//
// Modeled on the BSD update daemon / syncer (FreeBSD vfs_subr's
// sched_sync): dirty buffers age in the cache and a periodic pass pushes
// them out, so a steady-state workload writes at disk bandwidth in large
// scheduler-ordered batches instead of dribbling synchronous updates.
//
// One deliberate difference from FreeBSD's per-vnode worklist: every flush
// writes the FULL dirty set as ONE WriteBatch commit epoch. Partial by-age
// flushing is unsound without soft-updates-style dependency tracking — a
// re-dirtied directory block can name an inode whose initialization sits in
// a younger, unflushed buffer, and flushing the old cohort alone would
// commit the name before the inode (an R-CREATE violation). Flushing the
// whole set as a single epoch makes every flush trivially order-correct:
// the ordering checker treats one epoch as one atomic commit. DESIGN.md §10
// spells out the argument; cffs_run --check-ordering
// --mutate=syncer-reorder demonstrates what breaks without it.
//
// Two triggers, checked at every Tick() (SimEnv calls Tick at file-system
// operation boundaries, so a flush epoch never splits an in-flight op):
//   - deadline: the oldest dirty buffer is older than `max_age`, and at
//     least `interval` has passed since the last flush (30 s defaults, the
//     classic update-daemon cadence);
//   - throttle: the dirty count reached `dirty_high_watermark` of cache
//     capacity — the writer is effectively stalled while the flush runs,
//     which is what bounds dirty memory under create storms.
#ifndef CFFS_IO_SYNCER_H_
#define CFFS_IO_SYNCER_H_

#include <cstdint>

#include "src/cache/buffer_cache.h"
#include "src/io/io_engine.h"
#include "src/io/io_stats.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace cffs::io {

struct SyncerOptions {
  SimTime interval = SimTime::Seconds(30);  // min spacing of deadline flushes
  SimTime max_age = SimTime::Seconds(30);   // dirty age that forces a flush
  double dirty_high_watermark = 0.75;       // fraction of cache capacity
};

// Fault injection for the ordering harness: what a buggy syncer would do.
enum class SyncerMutation {
  kNone,
  // Issue the flush plan as per-block epochs in REVERSE scheduler order
  // (descending block number). Splitting the epoch forfeits the atomic-
  // commit argument above; the descending order then commits dirent blocks
  // (high block numbers) before the inode blocks they name (low block
  // numbers), a guaranteed R-CREATE conviction on a delayed-write run.
  kSyncerReorder,
};

enum class FlushTrigger : uint8_t { kExplicit = 0, kDeadline = 1, kThrottle = 2 };

class Syncer {
 public:
  Syncer(cache::BufferCache* cache, IoEngine* engine, SyncerOptions options);

  SyncerStats& stats() { return stats_; }
  const SyncerOptions& options() const { return options_; }
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  void set_mutation_for_test(SyncerMutation m) { mutation_ = m; }

  // Reclassifies flush time: throttle flushes as the stalled writer's
  // throttle_stall, deadline flushes as absorbed queue_wait. nullptr
  // disables.
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }

  // Check both triggers and flush if one fires. Called at op boundaries.
  Status Tick();

  // Unconditionally flush the full dirty set as one commit epoch (or as
  // the active mutation dictates). No-op when nothing is dirty.
  Status FlushNow(FlushTrigger trigger = FlushTrigger::kExplicit);

  // --- multi-tenant backpressure (src/mt) ---

  // In deferred mode Tick() never fires the throttle flush on its own: the
  // driver decides WHEN (after suspending the offending client) and WHO
  // pays (RequestThrottleFlush names the client that crossed the
  // watermark; the very next Tick runs the flush and tags the stall with
  // that id). In normal mode the throttle flush is autonomous and is
  // tagged with the span tracker's current client id — exact for a
  // single tenant, and exactly why multi-tenant runs use deferred mode:
  // "whichever op happens to be in flight" is the wrong payer there.
  void set_deferred_throttle(bool on) { deferred_throttle_ = on; }
  bool deferred_throttle() const { return deferred_throttle_; }
  bool AboveWatermark() const;
  void RequestThrottleFlush(uint64_t client) {
    throttle_requested_ = true;
    throttle_client_ = client;
  }
  // Client id tagged on the most recent throttle flush.
  uint64_t last_throttle_client() const { return last_throttle_client_; }

 private:
  int64_t now_ns() const;
  // The throttle branch: flush the full dirty set with the stall measured,
  // counted and charged to `client`'s throttle_stall phase.
  Status ThrottleFlush(uint64_t client);

  cache::BufferCache* cache_;
  IoEngine* engine_;
  SyncerOptions options_;
  SyncerStats stats_;
  SyncerMutation mutation_ = SyncerMutation::kNone;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanTracker* spans_ = nullptr;
  int64_t last_flush_ns_ = 0;
  bool deferred_throttle_ = false;
  bool throttle_requested_ = false;
  uint64_t throttle_client_ = 0;
  uint64_t last_throttle_client_ = 0;
};

}  // namespace cffs::io

#endif  // CFFS_IO_SYNCER_H_
