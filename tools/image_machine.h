// The machine the image tools (cffs_mkfs, cffs_populate, cffs_fsck and
// cffs_debug) run an image on: SimConfig{} with a 16 MB file cache.
#ifndef CFFS_TOOLS_IMAGE_MACHINE_H_
#define CFFS_TOOLS_IMAGE_MACHINE_H_

#include "src/sim/sim_env.h"

namespace cffs {

inline sim::SimConfig ImageMachine() {
  sim::SimConfig config;
  config.cache_blocks = 4096;
  return config;
}

}  // namespace cffs

#endif  // CFFS_TOOLS_IMAGE_MACHINE_H_
