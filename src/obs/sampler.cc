#include "src/obs/sampler.h"

namespace cffs::obs {

Json ToJson(const TimeSample& s) {
  Json j = Json::Object();
  j.Set("ts_ns", s.ts_ns);
  j.Set("dirty_blocks", s.dirty_blocks);
  j.Set("resident_blocks", s.resident_blocks);
  j.Set("throttle_flushes", s.throttle_flushes);
  j.Set("busy_permille", static_cast<uint64_t>(s.busy_permille));
  j.Set("mt_ready", s.mt_ready);
  j.Set("mt_suspended", s.mt_suspended);
  j.Set("shard_id", static_cast<uint64_t>(s.shard_id));
  return j;
}

TimeSeriesSampler::TimeSeriesSampler(SimTime interval, size_t max_samples)
    : interval_(interval.nanos() > 0 ? interval : SimTime::Millis(100)),
      max_samples_(max_samples > 1 ? max_samples : 2) {}

bool TimeSeriesSampler::Due(int64_t now_ns) const {
  return now_ns - last_ns_ >= interval_.nanos();
}

void TimeSeriesSampler::Record(const TimeSample& sample) {
  if (samples_.size() >= max_samples_) {
    // Decimate: keep every other sample, double the cadence. The series
    // stays bounded and still spans the whole run.
    size_t w = 0;
    for (size_t r = 0; r < samples_.size(); r += 2) samples_[w++] = samples_[r];
    samples_.resize(w);
    interval_ = interval_ * 2;
  }
  samples_.push_back(sample);
  last_ns_ = sample.ts_ns;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = EventKind::kCounterSample;
    e.ts_ns = sample.ts_ns;
    e.b = sample.dirty_blocks;
    e.aux = sample.resident_blocks;
    e.op_id = sample.throttle_flushes;
    e.seek_ns = sample.busy_permille;
    // Multi-tenant gauges ride in otherwise-unused disk-breakdown fields
    // (kCounterSample never carries a disk timing payload).
    e.rotation_ns = static_cast<int64_t>(sample.mt_ready);
    e.transfer_ns = static_cast<int64_t>(sample.mt_suspended);
    trace_->Record(e);
  }
}

void TimeSeriesSampler::Reset(int64_t now_ns) {
  samples_.clear();
  last_ns_ = now_ns;
}

}  // namespace cffs::obs
