// Plain stats structs for the multi-tenant op scheduler (src/mt). Kept in
// a dependency-free header (pattern: io/io_stats.h) so stats::MetricsSnapshot
// can embed them without linking against cffs_mt.
//
// The headline latency here is the FULL per-op latency a tenant observes:
// queue wait (op ready -> service start, i.e. time spent behind other
// clients in the submission queues) plus service time (the FsBase call
// itself, including any flush stall it absorbed). The span subsystem
// (obs/span.h) covers only the service portion; the difference between the
// two IS the multi-tenancy cost.
#ifndef CFFS_MT_MT_STATS_H_
#define CFFS_MT_MT_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/histogram.h"

namespace cffs::mt {

struct MtClientStats {
  uint64_t client_id = 0;
  uint64_t ops = 0;
  uint64_t creates = 0;
  uint64_t reads = 0;
  uint64_t deletes = 0;
  uint64_t writes = 0;       // antagonist bulk writes
  uint64_t renames = 0;      // moves between the client's directories
  uint64_t suspensions = 0;  // times backpressure parked this client
  int64_t service_ns = 0;    // exact sum of service times
  int64_t queue_wait_ns = 0; // exact sum of ready->service waits
  LatencyHistogram latency;  // full latency: queue wait + service
};

// Embedded as MetricsSnapshot::mt. Invariants (CheckInvariants):
//   - sum of per-client ops == ops_serviced
//   - each client's op kinds sum to its ops
//   - aggregate latency histogram has exactly ops_serviced samples
//   - Jain's fairness index lies in (0, 1]
struct MtStats {
  bool enabled = false;      // ran under the multi-tenant driver
  uint32_t clients = 0;
  std::string scheduler;     // "fifo" | "drr"
  bool backpressure = false;
  uint64_t ops_serviced = 0;
  uint64_t suspensions = 0;  // client-suspension events (backpressure)
  uint64_t resumes = 0;      // throttle handoffs back to the owning client
  uint64_t max_ready = 0;    // high-water mark of queued ready ops (per loop)
  int64_t service_ns = 0;
  int64_t queue_wait_ns = 0;
  // Simulated time from the loops' common start to the end of the closing
  // sync, on the latest loop's clock.
  int64_t elapsed_ns = 0;
  LatencyHistogram latency;     // full latency, all clients
  LatencyHistogram queue_wait;  // ready->service wait, all clients
  // Full latency by op kind (all clients): the bench gates on create p99.
  LatencyHistogram create_latency;
  LatencyHistogram read_latency;
  LatencyHistogram delete_latency;
  LatencyHistogram write_latency;
  LatencyHistogram rename_latency;
  std::vector<MtClientStats> per_client;

  // Jain's fairness index over per-client service-time shares:
  // J = (sum x)^2 / (n * sum x^2), 1.0 = perfectly fair, 1/n = one client
  // got everything. Clients that issued no ops are excluded. Returns 1.0
  // for fewer than two active clients (fairness is vacuous).
  double JainFairnessIndex() const {
    double sum = 0, sum_sq = 0;
    uint64_t n = 0;
    for (const MtClientStats& c : per_client) {
      if (c.ops == 0) continue;
      const double x = static_cast<double>(c.service_ns);
      sum += x;
      sum_sq += x * x;
      ++n;
    }
    if (n < 2 || sum_sq <= 0) return 1.0;
    return (sum * sum) / (static_cast<double>(n) * sum_sq);
  }

  void Reset() { *this = MtStats{}; }
};

// One service loop's share of a run (mt::MtDriver runs one loop per SimEnv;
// src/shard reports them as shard::ShardOpStats). Invariant: per-loop ops
// sum to MtStats::ops_serviced, since every serviced op runs on one loop.
struct LoopStats {
  uint32_t shard_id = 0;       // the loop's env index (its shard id)
  uint64_t ops = 0;            // ops serviced on this loop
  uint64_t renames_in = 0;     // renames from another loop into this one
  int64_t service_ns = 0;      // exact sum of service times on this loop
  int64_t queue_wait_ns = 0;   // exact sum of ready->service waits
  int64_t clock_end_ns = 0;    // loop clock when the run finished
  LatencyHistogram latency;    // full latency of ops serviced here
};

}  // namespace cffs::mt

#endif  // CFFS_MT_MT_STATS_H_
