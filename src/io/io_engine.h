// The io layer's synchronous device port over BlockDevice.
//
// The paper's two bulk transfers are each a single call to the device: a
// group read brings a directory's small files into the cache with one read
// (Readahead), and delayed write-back commits the dirty set as one
// scheduler-ordered, run-coalesced WriteBatch — a single commit epoch, the
// unit the ordering checker and the crash-state enumerator reason about
// (Syncer). Both calls issue at once and return the device's status; the
// port only counts them.
#ifndef CFFS_IO_IO_ENGINE_H_
#define CFFS_IO_IO_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/io/io_stats.h"
#include "src/util/status.h"

namespace cffs::io {

class IoEngine {
 public:
  explicit IoEngine(blk::BlockDevice* dev) : dev_(dev) {}

  blk::BlockDevice* device() { return dev_; }
  IoEngineStats& stats() { return stats_; }

  // One read command: `count` blocks starting at `bno` into `out`
  // (count * kBlockSize bytes).
  Status ReadRun(uint64_t bno, uint32_t count, std::span<uint8_t> out) {
    ++stats_.read_commands;
    return dev_->ReadRun(bno, count, out);
  }

  // One commit epoch: the device issues `ops` in its scheduler's order,
  // and writes sharing a non-sentinel `unit` that end up adjacent coalesce
  // into one command.
  Status WriteBatch(const std::vector<blk::WriteOp>& ops) {
    ++stats_.write_epochs;
    return dev_->WriteBatch(ops);
  }

 private:
  blk::BlockDevice* dev_;
  IoEngineStats stats_;
};

}  // namespace cffs::io

#endif  // CFFS_IO_IO_ENGINE_H_
