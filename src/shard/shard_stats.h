// Plain stats structs for the sharded namespace driver (src/shard). Kept
// dependency-free (pattern: mt/mt_stats.h) so tools and benches can embed
// them without linking the driver.
//
// Client-level accounting reuses mt::MtStats verbatim — the shard driver IS
// the mt closed-loop driver with one service loop per shard — and the
// per-shard axis is the driver's per-loop view: how much work each shard's
// disk absorbed, its latency distribution, and how far its clock advanced.
// Aggregate elapsed time for a sharded run is the MAX over per-shard clocks
// (the disks overlap in simulated time), which is what makes the scaling
// curve meaningful:
//   speedup(M) = elapsed(1) / elapsed(M) at equal total work.
#ifndef CFFS_SHARD_SHARD_STATS_H_
#define CFFS_SHARD_SHARD_STATS_H_

#include <cstdint>
#include <vector>

#include "src/mt/mt_stats.h"

namespace cffs::shard {

using ShardOpStats = mt::LoopStats;

// Returned by shard::ShardDriver::Run. Invariant: sum of per_shard ops ==
// mt.ops_serviced (every serviced op lands on exactly one shard).
struct ShardDriverStats {
  uint32_t shards = 0;
  int64_t elapsed_ns = 0;      // max shard clock delta over the measured run
  uint64_t renames_cross = 0;  // completed two-phase cross-shard renames
  std::vector<ShardOpStats> per_shard;
  mt::MtStats mt;              // client-level view (per-client, op-kind p99s)
};

}  // namespace cffs::shard

#endif  // CFFS_SHARD_SHARD_STATS_H_
