// MetricsSnapshot: every counter the stack keeps, gathered into one value.
//
// The simulated machine spreads its accounting across four structs —
// fs::FsOpStats (operation counts), cache::CacheStats (hit/miss/eviction),
// blk::BlockIoStats (commands and blocks moved) and disk::DiskStats (the
// seek / rotation / transfer / overhead time breakdown) — plus the span
// attribution, whose per-op histograms are the one per-op latency record.
// A snapshot copies all of them at one instant, serializes to JSON (the
// payload of BENCH_*.json reports and `cffs_run --snapshot-out`) and can
// self-check the cross-layer counter invariants the simulation is supposed
// to maintain.
//
// This is the stats layer: the one place allowed to see every other
// layer's stats structs at once. It sits at the top of the dependency DAG
// (cffs_lint's layering table enforces that nothing below includes it);
// stats::Snapshot (collect.h) is the usual collection point, and the
// structs here are plain data so tools and tests can also assemble
// snapshots by hand.
#ifndef CFFS_STATS_METRICS_H_
#define CFFS_STATS_METRICS_H_

#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/flash/flash_device.h"
#include "src/fs/common/fs_types.h"
#include "src/io/io_stats.h"
#include "src/mt/mt_stats.h"
#include "src/obs/json.h"
#include "src/obs/sampler.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/histogram.h"

namespace cffs::stats {

using obs::Json;

struct MetricsSnapshot {
  std::string fs_name;     // FileSystem::name(), e.g. "c-ffs"
  double sim_seconds = 0;  // simulation clock at snapshot time

  fs::FsOpStats fs_ops;
  cache::CacheStats cache;
  blk::BlockIoStats block_io;
  disk::DiskStats disk;
  // Flash backend counters (src/flash). flash_enabled == false when the run
  // drove the mechanical model (device=spinning), in which case `flash` is
  // all zeros and `disk` carries the timing; when true the roles reverse.
  flash::FlashStats flash;
  bool flash_enabled = false;
  io::IoEngineStats io_engine;
  io::SyncerStats syncer;
  io::ReadaheadStats readahead;
  // Multi-tenant scheduler stats (src/mt). enabled == false (the default)
  // when the run was single-tenant; filled by the bench/tool that owns the
  // MtDriver (SimEnv cannot see the driver).
  mt::MtStats mt;
  // Cross-layer span attribution (see obs/span.h) and the time-series
  // gauges (see obs/sampler.h). Empty when the env ran without them.
  obs::PhaseBreakdown spans;
  std::vector<obs::TimeSample> time_series;
  // Trace-ring accounting at snapshot time: a nonzero drop count means
  // every trace-derived artifact of this run is INCOMPLETE, which
  // CheckInvariants surfaces as a violation.
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;

  Json ToJson() const;
  std::string ToJsonString(int indent = 2) const { return ToJson().Dump(indent); }

  // Cross-layer counter invariants. Returns one human-readable line per
  // violation; empty means the books balance:
  //   - cache hits + misses == cache lookups
  //   - disk busy_time >= seek + rotation + transfer (and equals the full
  //     breakdown including overhead, within per-request rounding)
  //   - one disk command per block-device command (reads and writes); on a
  //     flash run the comparison targets the flash command counters, and
  //     flash busy time must equal overhead + wait + read + program + erase
  //     exactly (integer nanoseconds, no tolerance)
  //   - readahead: staged blocks resolve to at most one of hit / wasted,
  //     so hits + wasted <= staged
  //   - syncer epochs only clean blocks the cache counted as writebacks,
  //     so syncer blocks_flushed <= cache writebacks
  //   - spans: every finished op's phase times summed exactly to its
  //     end-to-end latency (violation count must be zero), per-op-type
  //     span counts match the fs op counters, and the aggregate per-type
  //     phase total equals the aggregate end-to-end total
  //   - the trace ring dropped no events (a dropped event silently
  //     falsifies every trace-derived analysis)
  std::vector<std::string> CheckInvariants() const;
};

// Per-struct serializers (shared by snapshot and bench reports).
Json ToJson(const fs::FsOpStats& s);
Json ToJson(const cache::CacheStats& s);
Json ToJson(const blk::BlockIoStats& s);
Json ToJson(const disk::DiskStats& s);
Json ToJson(const flash::FlashStats& s);
Json ToJson(const io::IoEngineStats& s);
Json ToJson(const io::SyncerStats& s);
Json ToJson(const io::ReadaheadStats& s);
Json ToJson(const mt::MtStats& s);

}  // namespace cffs::stats

#endif  // CFFS_STATS_METRICS_H_
