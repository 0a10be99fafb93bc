// Log-bucketed latency histogram with percentile queries.
//
// Used by workloads to report per-operation latency distributions (mean
// alone hides the rotational-miss bimodality this work is all about).
#ifndef CFFS_UTIL_HISTOGRAM_H_
#define CFFS_UTIL_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/util/sim_time.h"

namespace cffs {

class LatencyHistogram {
 public:
  // Buckets: [0,1us), [1,1.25us), ... geometric with ratio 2^(1/4) up to
  // ~80 s, then one overflow bucket.
  static constexpr int kBuckets = 128;

  void Record(SimTime latency) {
    const int64_t ns = std::max<int64_t>(latency.nanos(), 0);
    ++counts_[BucketOf(ns)];
    ++total_;
    sum_ns_ += ns;
    max_ns_ = std::max(max_ns_, ns);
  }

  uint64_t count() const { return total_; }
  SimTime max() const { return SimTime::Nanos(max_ns_); }
  SimTime mean() const {
    return total_ == 0 ? SimTime::Zero()
                       : SimTime::Nanos(sum_ns_ / static_cast<int64_t>(total_));
  }

  // Value at or below which `p` (0..1) of the samples fall: the upper edge
  // of the containing bucket (conservative), clamped to the largest sample,
  // so a percentile never exceeds max(). The overflow bucket has no finite
  // edge, so samples landing there report the observed max.
  SimTime Percentile(double p) const {
    if (total_ == 0) return SimTime::Zero();
    const uint64_t want = static_cast<uint64_t>(
        std::clamp(p, 0.0, 1.0) * static_cast<double>(total_ - 1)) + 1;
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets - 1; ++b) {
      seen += counts_[b];
      if (seen >= want) {
        return SimTime::Nanos(std::min(BucketUpperNs(b), max_ns_));
      }
    }
    return SimTime::Nanos(max_ns_);
  }

  // Named percentile accessors (the tails the reports quote). p999 needs
  // total_ >= 1000 samples to differ from max() in practice; with fewer it
  // lands in the top bucket, i.e. on max().
  SimTime p50() const { return Percentile(0.50); }
  SimTime p99() const { return Percentile(0.99); }
  SimTime p999() const { return Percentile(0.999); }

  void Merge(const LatencyHistogram& other) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
    sum_ns_ += other.sum_ns_;
    max_ns_ = std::max(max_ns_, other.max_ns_);
  }

  void Reset() { *this = LatencyHistogram{}; }

  // "mean=1.2ms p50=0.9ms p90=12.3ms p99=14.1ms max=22.0ms (n=10000)"
  // (the report form is obs::ToJson(const LatencyHistogram&)).
  std::string Summary() const;

  // Bucket introspection (tests, external percentile estimators).
  uint64_t bucket_count(int b) const { return counts_[b]; }
  static int64_t BucketUpperNanos(int b) { return BucketUpperNs(b); }

 private:
  static int BucketOf(int64_t ns) {
    if (ns < 1000) return 0;
    const double buckets_per_doubling = 4.0;
    const int b = 1 + static_cast<int>(buckets_per_doubling *
                                       std::log2(static_cast<double>(ns) / 1000.0));
    return std::min(b, kBuckets - 1);
  }
  static int64_t BucketUpperNs(int b) {
    if (b == 0) return 1000;
    return static_cast<int64_t>(1000.0 * std::pow(2.0, b / 4.0));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
  int64_t sum_ns_ = 0;
  int64_t max_ns_ = 0;
};

}  // namespace cffs

#endif  // CFFS_UTIL_HISTOGRAM_H_
