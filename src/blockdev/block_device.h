// Block device: the file systems' view of the disk.
//
// Exposes the disk as an array of 4 KB blocks and provides the driver
// services the paper's platform had (§4.1): scatter/gather-style batched
// I/O ordered by a C-LOOK scheduler, and contiguous multi-block transfers
// issued as a single disk command (the primitive explicit grouping relies
// on).
//
// This class is the one command path for both media. ReadRun, WriteRun and
// WriteBatch check their arguments, order and coalesce a batch, open its
// commit epoch, count BlockIoStats and trace it; only the media work is
// left to two protected hooks. The spinning hooks below drive the
// DiskModel one command at a time; flash::FlashDevice overrides the same
// two hooks with its channel/queue-depth timing. Everything above (cache,
// io engine, file systems) calls through the base and never knows which
// media it is talking to.
#ifndef CFFS_BLOCKDEV_BLOCK_DEVICE_H_
#define CFFS_BLOCKDEV_BLOCK_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/disk_model.h"
#include "src/disk/scheduler.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace cffs::blk {

inline constexpr uint32_t kBlockSize = 4096;
inline constexpr uint32_t kSectorsPerBlock = kBlockSize / disk::kSectorSize;

struct BlockIoStats {
  uint64_t reads = 0;        // disk read commands issued
  uint64_t writes = 0;       // disk write commands issued
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  void Reset() { *this = BlockIoStats{}; }
};

// One element of a batched write: block number plus the data to write.
// Adjacent ops coalesce into one disk command only when they share a
// non-sentinel `unit` (write-clustering unit — a file for FFS, a group
// extent for C-FFS). UINT64_MAX never coalesces.
struct WriteOp {
  uint64_t bno = 0;
  const uint8_t* data = nullptr;  // kBlockSize bytes, owned by caller
  uint64_t unit = UINT64_MAX;
};

class BlockDevice {
 public:
  BlockDevice(disk::DiskModel* disk,
              disk::SchedulerPolicy policy = disk::SchedulerPolicy::kCLook);
  virtual ~BlockDevice() = default;

  uint64_t block_count() const { return block_count_; }
  disk::DiskModel* disk() { return disk_; }

  // Single-block transfers.
  Status ReadBlock(uint64_t bno, std::span<uint8_t> out);
  Status WriteBlock(uint64_t bno, std::span<const uint8_t> in);

  // Contiguous run issued as one command (scatter/gather read of a
  // group). The buffer must hold count * kBlockSize bytes. A write run is
  // its own commit epoch.
  Status ReadRun(uint64_t bno, uint32_t count, std::span<uint8_t> out);
  Status WriteRun(uint64_t bno, uint32_t count, std::span<const uint8_t> in);

  // Batched write-back: orders ops with the scheduler, coalesces adjacent
  // same-unit blocks into single commands, and issues them under one
  // commit epoch. This is how delayed writes (and group writes) reach the
  // disk. A bad op (past the end, or null data) fails the batch before
  // anything is written.
  Status WriteBatch(const std::vector<WriteOp>& ops);

  // The order WriteBatch(ops) would issue `ops` in now (indices into ops):
  // the scheduler's order from the current head position. Flush-plan
  // previews (crash enumeration of a syncer epoch) use it to reproduce a
  // batch's service order without issuing it.
  std::vector<size_t> ServiceOrder(const std::vector<WriteOp>& ops) const;

  BlockIoStats& stats() { return stats_; }
  const BlockIoStats& stats() const { return stats_; }

  // Emits one kWriteBatch trace event per WriteBatch call (how many blocks
  // coalesced into how many commands) plus one kBlockWrite event per write
  // command issued, carrying the commit epoch: every command of one
  // WriteBatch shares an epoch (the batch commits as a unit as far as
  // ordering analysis is concerned), while standalone writes get their own.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Commit epoch of the most recent write command (0 = none yet).
  uint64_t commit_epoch() const { return epoch_; }

 protected:
  // One write command: `count` blocks from `bno`.
  struct Command {
    uint64_t bno = 0;
    uint32_t count = 0;
  };
  // The write commands of one window (a WriteRun, or all of one
  // WriteBatch), in service order, and each block's kBlockSize bytes in
  // the same order: cmds[0]'s blocks first.
  struct WriteWindow {
    std::span<const Command> cmds;
    std::span<const uint8_t* const> blocks;
  };

  // Media hooks. MediaRead moves one checked run into `out` (exactly
  // count * kBlockSize bytes). MediaWrite issues a window's commands and
  // calls Committed for each one as it completes.
  virtual Status MediaRead(uint64_t bno, uint32_t count,
                           std::span<uint8_t> out);
  virtual Status MediaWrite(const WriteWindow& window);

  // Books one completed write command at simulated time `ts_ns`: counts
  // it, moves the head past it and emits its kBlockWrite event under the
  // window's commit epoch.
  void Committed(const Command& cmd, int64_t ts_ns);

  obs::TraceRecorder* trace_ = nullptr;

 private:
  Status CheckRun(uint64_t bno, uint32_t count, size_t bytes,
                  const char* what) const;
  // One command's blocks as one buffer: in place when they lie back to
  // back in memory (every WriteRun), else gathered into run_.
  std::span<const uint8_t> Gather(std::span<const uint8_t* const> blocks);

  disk::DiskModel* disk_;
  disk::SchedulerPolicy policy_;
  uint64_t block_count_;
  uint64_t epoch_ = 0;  // monotonic commit-epoch counter
  uint64_t head_lba_ = 0;  // scheduler's notion of the head position
  BlockIoStats stats_;
  // The window being issued and the spinning hook's gather buffer for a
  // scattered multi-block command, kept across calls.
  std::vector<Command> cmds_;
  std::vector<const uint8_t*> blocks_;
  std::vector<uint8_t> run_;
};

}  // namespace cffs::blk

#endif  // CFFS_BLOCKDEV_BLOCK_DEVICE_H_
