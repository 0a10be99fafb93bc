// Plain counter structs for the I/O subsystem (device port, syncer,
// readahead). Kept in a dependency-free header so stats::MetricsSnapshot can
// embed them without linking against cffs_io.
#ifndef CFFS_IO_IO_STATS_H_
#define CFFS_IO_IO_STATS_H_

#include <cstdint>

namespace cffs::io {

struct IoEngineStats {
  uint64_t write_epochs = 0;  // WriteBatch commands issued (one epoch each)
  uint64_t read_commands = 0; // ReadRun commands issued
  void Reset() { *this = IoEngineStats{}; }
};

struct SyncerStats {
  uint64_t flushes = 0;           // write-back epochs emitted
  uint64_t deadline_flushes = 0;  // triggered by dirty-buffer age
  uint64_t throttle_flushes = 0;  // triggered by the dirty high-watermark
  uint64_t blocks_flushed = 0;    // dirty blocks cleaned by syncer epochs
  uint64_t ticks = 0;
  // Simulated time writers spent stalled at the dirty high-watermark while
  // a throttle flush ran (the duration of every kIoThrottle event).
  uint64_t throttle_stall_ns = 0;
  void Reset() { *this = SyncerStats{}; }
};

struct ReadaheadStats {
  uint64_t group_stages = 0;   // whole-group stage-on-miss fetches
  uint64_t ramp_stages = 0;    // sequential-ramp prefetch commands
  uint64_t blocks_requested = 0;  // blocks covered by stage decisions
  uint64_t ramp_resets = 0;    // sequential streaks broken by a random access
  void Reset() { *this = ReadaheadStats{}; }
};

}  // namespace cffs::io

#endif  // CFFS_IO_IO_STATS_H_
