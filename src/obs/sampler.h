// Sim-clock-driven time-series telemetry.
//
// The stack's counters answer "how much in total"; the sampler answers
// "when". At a fixed simulated-time interval (SimEnv checks at every op
// boundary) it records one TimeSample gauge row — dirty buffer count,
// cache occupancy, throttle activity and disk utilization over the
// elapsed interval — into a bounded series. When the series fills it
// decimates (keeps every other sample and doubles the interval), so
// memory stays bounded on arbitrarily long runs while the full run
// remains covered.
//
// Each sample is also emitted as a kCounterSample trace event, which
// TraceRecorder::ToChromeJson expands into Chrome counter tracks ("ph":
// "C") — dirty/resident blocks and disk utilization render as stacked
// area charts under the event lanes in perfetto.
#ifndef CFFS_OBS_SAMPLER_H_
#define CFFS_OBS_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"

namespace cffs::obs {

struct TimeSample {
  int64_t ts_ns = 0;
  uint64_t dirty_blocks = 0;     // buffer cache dirty count
  uint64_t resident_blocks = 0;  // buffer cache occupancy
  uint64_t throttle_flushes = 0; // throttle flushes since the last sample
  uint32_t busy_permille = 0;    // disk busy fraction over the interval
  // Multi-tenant gauges (src/mt); zero outside MtDriver runs. mt_ready is
  // the number of queued ready ops across all client submission queues
  // (each client holds at most one); mt_suspended counts clients parked by
  // backpressure. Filled by the SimEnv sample hook.
  uint64_t mt_ready = 0;
  uint64_t mt_suspended = 0;
  // Sharded runs (src/shard): which shard's SimEnv recorded this sample.
  // Each shard has its own sampler, so its series IS that shard's
  // dirty-block gauge track; the id tags rows when tools merge the
  // per-shard series. 0 (and a 0 tag) outside sharded runs.
  uint32_t shard_id = 0;
};

Json ToJson(const TimeSample& s);

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(SimTime interval, size_t max_samples = 2048);

  // True when at least one interval has elapsed since the last sample.
  bool Due(int64_t now_ns) const;

  // Appends a sample (caller fills the gauges) and emits the counter
  // trace event. Decimates when full.
  void Record(const TimeSample& sample);

  const std::vector<TimeSample>& samples() const { return samples_; }
  SimTime interval() const { return interval_; }

  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Drops the series and re-arms the next sample `interval` after
  // `now_ns`. The interval keeps any decimation-doubled value.
  void Reset(int64_t now_ns);

 private:
  SimTime interval_;
  size_t max_samples_;
  int64_t last_ns_ = 0;
  std::vector<TimeSample> samples_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace cffs::obs

#endif  // CFFS_OBS_SAMPLER_H_
