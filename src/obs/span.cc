#include "src/obs/span.h"

#include <algorithm>
#include <cstdlib>

namespace cffs::obs {

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kCpu: return "cpu";
    case Phase::kCacheHit: return "cache_hit";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kThrottleStall: return "throttle_stall";
    case Phase::kSeek: return "seek";
    case Phase::kRotation: return "rotation";
    case Phase::kTransfer: return "transfer";
    case Phase::kOverhead: return "overhead";
    case Phase::kChannelWait: return "channel_wait";
    case Phase::kProgram: return "program";
    case Phase::kErase: return "erase";
  }
  return "?";
}

int64_t PhaseTimes::TotalNs() const {
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  return total;
}

void PhaseTimes::Add(Phase p, int64_t dur_ns) {
  const int i = static_cast<int>(p);
  ns[i] += dur_ns;
  ++count[i];
}

void PhaseTimes::Merge(const PhaseTimes& other) {
  for (int i = 0; i < kPhaseCount; ++i) {
    ns[i] += other.ns[i];
    count[i] += other.count[i];
  }
}

Json PhaseTimes::ToJson() const {
  Json j = Json::Object();
  for (int i = 0; i < kPhaseCount; ++i) {
    Json p = Json::Object();
    p.Set("ns", ns[i]);
    p.Set("count", count[i]);
    j.Set(PhaseName(static_cast<Phase>(i)), std::move(p));
  }
  return j;
}

int TrackedOpIndex(FsOp op) {
  const int i = static_cast<int>(op);
  return i < kTrackedOps ? i : -1;  // kOther is the one untracked value
}

FsOp TrackedOpAt(int index) { return static_cast<FsOp>(index); }

const OpTypeBreakdown* PhaseBreakdown::ForOp(FsOp op) const {
  const int i = TrackedOpIndex(op);
  return i < 0 ? nullptr : &per_op[i];
}

Json ToJson(const LatencyHistogram& h) {
  Json j = Json::Object();
  j.Set("count", h.count());
  j.Set("mean_ns", h.mean().nanos());
  j.Set("p50_ns", h.p50().nanos());
  j.Set("p99_ns", h.p99().nanos());
  j.Set("p999_ns", h.p999().nanos());
  j.Set("max_ns", h.max().nanos());
  return j;
}

namespace {

// The e2e summary plus its exact sum (the histogram mean rounds).
Json E2eJson(const LatencyHistogram& h, int64_t total_ns) {
  Json j = ToJson(h);
  j.Set("total_ns", total_ns);
  return j;
}

}  // namespace

Json PhaseBreakdown::ToJson() const {
  Json j = Json::Object();
  j.Set("ops", ops_finished);
  j.Set("invariant_violations", invariant_violations);
  j.Set("max_residual_ns", max_residual_ns);
  j.Set("background", background.ToJson());
  Json ops = Json::Object();
  for (int i = 0; i < kTrackedOps; ++i) {
    const OpTypeBreakdown& b = per_op[i];
    Json o = Json::Object();
    o.Set("count", b.count());
    o.Set("e2e", E2eJson(b.e2e, b.e2e_total_ns));
    o.Set("phases", b.totals.ToJson());
    ops.Set(FsOpName(TrackedOpAt(i)), std::move(o));
  }
  j.Set("per_op", std::move(ops));
  if (!per_client.empty()) {
    // Compact summary only: at 1024 tenants the full per-client grid would
    // dwarf the report. cffs_run --per-client prints the whole table.
    Json mt = Json::Object();
    mt.Set("clients", static_cast<uint64_t>(per_client.size()));
    std::vector<const ClientBreakdown*> worst;
    worst.reserve(per_client.size());
    for (const ClientBreakdown& c : per_client) {
      if (c.ops > 0) worst.push_back(&c);
    }
    std::sort(worst.begin(), worst.end(),
              [](const ClientBreakdown* a, const ClientBreakdown* b) {
                const int64_t pa = a->e2e.p99().nanos();
                const int64_t pb = b->e2e.p99().nanos();
                return pa != pb ? pa > pb : a->client_id < b->client_id;
              });
    if (worst.size() > 8) worst.resize(8);
    Json rows = Json::Array();
    for (const ClientBreakdown* c : worst) {
      Json row = Json::Object();
      row.Set("client", c->client_id);
      row.Set("ops", c->ops);
      row.Set("e2e", E2eJson(c->e2e, c->e2e_total_ns));
      rows.Push(std::move(row));
    }
    mt.Set("worst_p99", std::move(rows));
    j.Set("per_client", std::move(mt));
  }
  return j;
}

SpanTracker::OverrideScope::OverrideScope(SpanTracker* tracker, Phase phase)
    : tracker_(tracker) {
  if (tracker_ == nullptr) return;
  saved_ = tracker_->override_;
  if (!tracker_->override_.has_value()) {
    tracker_->override_ = phase;
    installed_ = true;
  }
}

SpanTracker::OverrideScope::~OverrideScope() {
  if (tracker_ != nullptr && installed_) tracker_->override_ = saved_;
}

void SpanTracker::OpenBoundary(int64_t now_ns) {
  if (!stack_.empty()) return;  // mid-op charge: attribute to the op itself
  if (pending_open_) return;    // several charges before one op accumulate
  pending_ = OpContext{};
  pending_.start_ns = now_ns;
  pending_open_ = true;
}

void SpanTracker::BeginOp(FsOp op, uint64_t op_id, int64_t now_ns) {
  OpContext ctx;
  ctx.op = op;
  ctx.op_id = op_id;
  ctx.client_id = client_id_;
  if (stack_.empty() && pending_open_) {
    // Claim the boundary window: the CPU charged for this call (and any
    // flush stall taken at the boundary) is part of this op's span.
    ctx.start_ns = pending_.start_ns;
    ctx.phases = pending_.phases;
    ctx.segments = std::move(pending_.segments);
    ctx.segments_dropped = pending_.segments_dropped;
    pending_ = OpContext{};
    pending_open_ = false;
  } else {
    ctx.start_ns = now_ns;
  }
  stack_.push_back(std::move(ctx));
}

void SpanTracker::EndOp(int64_t now_ns) {
  if (stack_.empty()) return;
  OpContext done = std::move(stack_.back());
  stack_.pop_back();
  done.end_ns = now_ns;

  const int64_t residual = done.residual_ns();
  if (residual != 0) {
    ++agg_.invariant_violations;
    agg_.max_residual_ns = std::max<int64_t>(
        agg_.max_residual_ns, residual < 0 ? -residual : residual);
  }
  ++agg_.ops_finished;

  const int idx = TrackedOpIndex(done.op);
  if (idx >= 0) {
    OpTypeBreakdown& b = agg_.per_op[idx];
    const int64_t e2e = done.e2e_ns();
    b.e2e.Record(SimTime::Nanos(e2e));
    b.e2e_total_ns += e2e;
    b.totals.Merge(done.phases);
  }

  if (client_track_) {
    const size_t slot =
        done.client_id < client_cap_ ? done.client_id : client_cap_ - 1;
    if (agg_.per_client.size() <= slot) agg_.per_client.resize(slot + 1);
    ClientBreakdown& cb = agg_.per_client[slot];
    cb.client_id = slot;
    ++cb.ops;
    cb.e2e_total_ns += done.e2e_ns();
    cb.totals.Merge(done.phases);
    cb.e2e.Record(SimTime::Nanos(done.e2e_ns()));
  }

  if (!stack_.empty()) {
    // Nested op: its time advanced the clock inside the parent's window,
    // so fold it into the parent to keep the parent's sum exact.
    OpContext& parent = stack_.back();
    parent.phases.Merge(done.phases);
    for (const SpanSegment& s : done.segments) {
      AddSegment(&parent, s.phase, s.start_ns, s.dur_ns, s.detail);
    }
    parent.segments_dropped += done.segments_dropped;
  }

  ConsiderSlowest(done);
}

void SpanTracker::AddSegment(OpContext* ctx, Phase phase, int64_t start_ns,
                             int64_t dur_ns, uint64_t detail) {
  if (dur_ns <= 0) return;
  if (!ctx->segments.empty()) {
    SpanSegment& last = ctx->segments.back();
    if (last.phase == phase && last.start_ns + last.dur_ns == start_ns &&
        (detail == 0 || detail == last.detail)) {
      last.dur_ns += dur_ns;
      return;
    }
  }
  if (ctx->segments.size() >= kMaxSegments) {
    ++ctx->segments_dropped;
    return;
  }
  ctx->segments.push_back({phase, start_ns, dur_ns, detail});
}

void SpanTracker::AddToSink(Phase phase, int64_t dur_ns, int64_t start_ns,
                            uint64_t detail) {
  if (!stack_.empty()) {
    OpContext& top = stack_.back();
    top.phases.Add(phase, dur_ns);
    AddSegment(&top, phase, start_ns, dur_ns, detail);
  } else if (pending_open_) {
    pending_.phases.Add(phase, dur_ns);
    AddSegment(&pending_, phase, start_ns, dur_ns, detail);
  } else {
    agg_.background.Add(phase, dur_ns);
  }
}

void SpanTracker::Attribute(Phase phase, int64_t dur_ns, int64_t start_ns,
                            uint64_t detail) {
  if (dur_ns <= 0) return;
  if (override_.has_value()) phase = *override_;
  AddToSink(phase, dur_ns, start_ns, detail);
}

void SpanTracker::AttributeDisk(int64_t start_ns, int64_t seek_ns,
                                int64_t rotation_ns, int64_t transfer_ns,
                                int64_t overhead_ns, uint64_t lba) {
  // Command order on the wire: overhead, then the mechanical phases.
  int64_t t = start_ns;
  Attribute(Phase::kOverhead, overhead_ns, t, lba);
  t += std::max<int64_t>(overhead_ns, 0);
  Attribute(Phase::kSeek, seek_ns, t, lba);
  t += std::max<int64_t>(seek_ns, 0);
  Attribute(Phase::kRotation, rotation_ns, t, lba);
  t += std::max<int64_t>(rotation_ns, 0);
  Attribute(Phase::kTransfer, transfer_ns, t, lba);
}

void SpanTracker::AttributeFlash(int64_t start_ns, int64_t overhead_ns,
                                 int64_t wait_ns, int64_t read_ns,
                                 int64_t program_ns, int64_t erase_ns,
                                 uint64_t lba) {
  // Critical-channel order: command overhead, queueing behind earlier work
  // on that channel, then the chip operations.
  int64_t t = start_ns;
  Attribute(Phase::kOverhead, overhead_ns, t, lba);
  t += std::max<int64_t>(overhead_ns, 0);
  Attribute(Phase::kChannelWait, wait_ns, t, lba);
  t += std::max<int64_t>(wait_ns, 0);
  Attribute(Phase::kTransfer, read_ns, t, lba);
  t += std::max<int64_t>(read_ns, 0);
  Attribute(Phase::kProgram, program_ns, t, lba);
  t += std::max<int64_t>(program_ns, 0);
  Attribute(Phase::kErase, erase_ns, t, lba);
}

void SpanTracker::CountHit() {
  // Hits cost no simulated time: count them on the current sink without
  // touching the time ledger (the phase-sum invariant stays exact).
  PhaseTimes* sink = nullptr;
  if (!stack_.empty()) sink = &stack_.back().phases;
  else if (pending_open_) sink = &pending_.phases;
  else sink = &agg_.background;
  ++sink->count[static_cast<int>(Phase::kCacheHit)];
}

void SpanTracker::ConsiderSlowest(const OpContext& done) {
  if (top_n_ == 0) return;
  if (slowest_.size() < top_n_) {
    slowest_.push_back(done);
    return;
  }
  auto min_it = std::min_element(
      slowest_.begin(), slowest_.end(),
      [](const OpContext& a, const OpContext& b) {
        return a.e2e_ns() < b.e2e_ns();
      });
  if (done.e2e_ns() > min_it->e2e_ns()) *min_it = done;
}

std::vector<OpContext> SpanTracker::SlowestOps() const {
  std::vector<OpContext> out = slowest_;
  std::sort(out.begin(), out.end(), [](const OpContext& a, const OpContext& b) {
    return a.e2e_ns() > b.e2e_ns();
  });
  return out;
}

void SpanTracker::set_top_n(size_t n) {
  top_n_ = n;
  if (slowest_.size() > n) {
    std::sort(slowest_.begin(), slowest_.end(),
              [](const OpContext& a, const OpContext& b) {
                return a.e2e_ns() > b.e2e_ns();
              });
    slowest_.resize(n);
  }
}

void SpanTracker::Reset() {
  agg_.Reset();
  slowest_.clear();
  pending_ = OpContext{};
  pending_open_ = false;
  // Leave any open op stack alone: Reset between ops is the contract.
}

}  // namespace cffs::obs
