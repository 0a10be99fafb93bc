#include "src/stats/collect.h"

namespace cffs::stats {

MetricsSnapshot Snapshot(sim::SimEnv& env) {
  MetricsSnapshot snap;
  fs::FsBase* fs = env.fs_base();
  snap.fs_name = fs ? fs->name() : sim::FsKindName(env.kind());
  snap.sim_seconds = env.clock().now().seconds();
  if (fs) snap.fs_ops = fs->op_stats();
  snap.cache = env.cache().stats();
  snap.block_io = env.device().stats();
  snap.disk = env.disk().stats();
  if (env.flash()) {
    snap.flash = env.flash()->flash_stats();
    snap.flash_enabled = true;
  }
  snap.io_engine = env.engine().stats();
  if (env.syncer()) snap.syncer = env.syncer()->stats();
  snap.readahead = env.readahead().stats();
  snap.spans = env.spans()->breakdown();
  snap.time_series = env.sampler()->samples();
  if (env.trace()) {
    snap.trace_events = env.trace()->size();
    snap.trace_dropped = env.trace()->dropped();
  }
  return snap;
}

}  // namespace cffs::stats
