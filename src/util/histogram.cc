#include "src/util/histogram.h"

#include <cstdio>

namespace cffs {

std::string LatencyHistogram::Summary() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "mean=%.2fms p50=%.2fms p90=%.2fms p99=%.2fms p999=%.2fms "
                "max=%.2fms (n=%llu)",
                mean().millis(), Percentile(0.50).millis(),
                Percentile(0.90).millis(), Percentile(0.99).millis(),
                Percentile(0.999).millis(), max().millis(),
                static_cast<unsigned long long>(total_));
  return buf;
}

}  // namespace cffs
