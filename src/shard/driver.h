// Sharded multi-client driver: the mt closed-loop driver (mt/driver.h) with
// one service loop per shard of a ShardRouter.
//
// Each client owns `dirs_per_client` directories /c<i>/d<j> whose placement
// hash scatters them over the shards, so an op's service shard is decided by
// placement, not by the client. Everything else — op generation (the
// postmark mix with its rename share, or devtree) and execution, one
// mt::OpScheduler per shard and the earliest-start shard pick, per-shard
// backpressure, warmup exclusion and the stats — is mt::MtDriver's. This
// driver adds only what needs the router: it builds the directories, hands
// the loop the router's Rename (a rename between directories that hash to
// different shards runs the two-phase journal protocol), and syncs every
// shard before measurement.
#ifndef CFFS_SHARD_DRIVER_H_
#define CFFS_SHARD_DRIVER_H_

#include "src/mt/driver.h"
#include "src/shard/router.h"
#include "src/shard/shard_stats.h"
#include "src/util/status.h"

namespace cffs::shard {

// mt::MtParams with the sharded defaults: two directories per client (a
// rename needs two) and up to 64 live files in each.
struct ShardDriverParams : mt::MtParams {
  ShardDriverParams() {
    dirs_per_client = 2;
    max_live_files = 64;
  }
};

class ShardDriver {
 public:
  ShardDriver(ShardRouter* router, mt::MtParams params);

  // Builds the per-client directories (outside measurement), syncs every
  // shard, then runs the loop (mt::MtDriver::Run). Call once.
  Status Run();

  const ShardDriverStats& stats() const { return stats_; }
  ShardDriverStats TakeStats() { return std::move(stats_); }

 private:
  ShardRouter* router_;
  mt::MtDriver loop_;
  ShardDriverStats stats_;
};

}  // namespace cffs::shard

#endif  // CFFS_SHARD_DRIVER_H_
