// The small-file microbenchmark, "based on the small-file benchmark from
// [Rosenblum92]", paper §4.2: "create and write 10000 1KB files, read the
// same files in the same order, overwrite the same files in the same
// order, and then remove the same files in the same order."
//
// Each phase ends with a forced write-back of all dirty blocks ("In all of
// our experiments, we forcefully write back all dirty blocks before
// considering the measurement complete") and, optionally, a cache flush so
// the next phase runs cold (the paper's read/overwrite results are disk-
// bound, implying cold caches between phases).
#ifndef CFFS_WORKLOAD_SMALLFILE_H_
#define CFFS_WORKLOAD_SMALLFILE_H_

#include <string>
#include <vector>

#include "src/sim/sim_env.h"

namespace cffs::workload {

struct SmallFileParams {
  uint32_t num_files = 10000;
  uint32_t file_bytes = 1024;
  uint32_t num_dirs = 100;       // files spread round-robin-free: dir-major
  uint64_t seed = 42;            // payload generation
};

struct PhaseResult {
  std::string phase;           // create / read / overwrite / delete
  double seconds = 0;          // simulated
  double files_per_sec = 0;
  uint64_t disk_reads = 0;     // disk commands
  uint64_t disk_writes = 0;
  uint64_t sync_metadata_writes = 0;
  uint64_t group_reads = 0;
  // Where the drive spent its time during this phase (seconds of simulated
  // time; busy = seek + rotation + transfer + overhead).
  double disk_busy_s = 0;
  double disk_seek_s = 0;
  double disk_rotation_s = 0;
  double disk_transfer_s = 0;
  double disk_overhead_s = 0;
  // Flash-backend phase breakdown (all zero on spinning runs; busy =
  // overhead + wait + read + program + erase). `flash` is true when the
  // environment drove the flash model, so reports know which breakdown
  // to print.
  bool flash = false;
  double flash_busy_s = 0;
  double flash_overhead_s = 0;
  double flash_wait_s = 0;
  double flash_read_s = 0;
  double flash_program_s = 0;
  double flash_erase_s = 0;
  uint64_t flash_erases = 0;
};

struct SmallFileResult {
  std::vector<PhaseResult> phases;  // create, read, overwrite, delete
  const PhaseResult& phase(const std::string& name) const;
};

// Runs the four phases on the environment's (freshly formatted) file
// system. Returns per-phase simulated throughput and disk-request counts.
Result<SmallFileResult> RunSmallFile(sim::SimEnv* env,
                                     const SmallFileParams& params);

}  // namespace cffs::workload

#endif  // CFFS_WORKLOAD_SMALLFILE_H_
