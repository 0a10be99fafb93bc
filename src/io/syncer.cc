#include "src/io/syncer.h"

#include <algorithm>
#include <vector>

namespace cffs::io {

Syncer::Syncer(cache::BufferCache* cache, IoEngine* engine,
               SyncerOptions options)
    : cache_(cache), engine_(engine), options_(options) {}

int64_t Syncer::now_ns() const {
  return engine_->device()->disk()->now().nanos();
}

bool Syncer::AboveWatermark() const {
  const size_t watermark = static_cast<size_t>(
      options_.dirty_high_watermark * static_cast<double>(cache_->capacity()));
  return watermark > 0 && cache_->dirty_count() >= watermark;
}

Status Syncer::ThrottleFlush(uint64_t client) {
  // The writer that pushed the cache over the watermark is stalled for
  // the full duration of this flush: measure it, count it, and charge it
  // to the throttle_stall phase rather than the flush's disk breakdown.
  const int64_t stall_start = now_ns();
  const uint64_t dirty_before = cache_->dirty_count();
  last_throttle_client_ = client;
  Status s;
  {
    obs::SpanTracker::OverrideScope ov(spans_, obs::Phase::kThrottleStall);
    s = FlushNow(FlushTrigger::kThrottle);
  }
  const int64_t stall = now_ns() - stall_start;
  stats_.throttle_stall_ns += static_cast<uint64_t>(stall);
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kIoThrottle;
    e.ts_ns = stall_start;
    e.dur_ns = stall;
    e.a = dirty_before;
    e.b = client;  // who pays for this flush
    trace_->Record(e);
  }
  return s;
}

Status Syncer::Tick() {
  ++stats_.ticks;
  if (deferred_throttle_) {
    // Multi-tenant mode: only a driver-requested flush fires here, tagged
    // with the client the driver blamed (the watermark crosser). The tick
    // runs in that client's pre-op boundary window, so the span tracker
    // attributes the stall to its next op exactly.
    if (throttle_requested_) {
      throttle_requested_ = false;
      return ThrottleFlush(throttle_client_);
    }
  } else if (AboveWatermark()) {
    return ThrottleFlush(spans_ != nullptr ? spans_->client_id() : 0);
  }
  if (now_ns() - last_flush_ns_ < options_.interval.nanos()) return OkStatus();
  const int64_t oldest = cache_->oldest_dirty_ns();
  if (oldest < 0 || now_ns() - oldest < options_.max_age.nanos()) {
    return OkStatus();
  }
  // A deadline flush that fires at an op boundary is background work the
  // *next* op absorbs as queue_wait, not seek/rotation/transfer.
  obs::SpanTracker::OverrideScope ov(spans_, obs::Phase::kQueueWait);
  return FlushNow(FlushTrigger::kDeadline);
}

Status Syncer::FlushNow(FlushTrigger trigger) {
  std::vector<blk::WriteOp> plan = cache_->BuildFlushPlan();
  last_flush_ns_ = now_ns();
  if (plan.empty()) return OkStatus();

  if (mutation_ == SyncerMutation::kSyncerReorder) {
    // Buggy variant (see header): per-block epochs, descending block number.
    std::vector<blk::WriteOp> reversed = plan;
    std::sort(reversed.begin(), reversed.end(),
              [](const blk::WriteOp& a, const blk::WriteOp& b) {
                return a.bno > b.bno;
              });
    Status status = OkStatus();
    for (const blk::WriteOp& op : reversed) {
      Status s = engine_->WriteBatch({op});  // each op its own epoch
      if (!s.ok() && status.ok()) status = s;
    }
    RETURN_IF_ERROR(status);
  } else {
    RETURN_IF_ERROR(engine_->WriteBatch(plan));
  }

  const size_t cleaned = cache_->NoteFlushed(plan);
  ++stats_.flushes;
  if (trigger == FlushTrigger::kDeadline) ++stats_.deadline_flushes;
  if (trigger == FlushTrigger::kThrottle) ++stats_.throttle_flushes;
  stats_.blocks_flushed += cleaned;
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kSyncerFlush;
    e.ts_ns = now_ns();
    e.a = cleaned;
    e.b = plan.size();
    e.aux = static_cast<uint64_t>(trigger);
    trace_->Record(e);
  }
  return OkStatus();
}

}  // namespace cffs::io
