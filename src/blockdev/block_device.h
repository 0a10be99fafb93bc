// Block device: the file systems' view of the disk.
//
// Exposes the disk as an array of 4 KB blocks and provides the driver
// services the paper's platform had (§4.1): scatter/gather-style batched
// I/O ordered by a C-LOOK scheduler, and contiguous multi-block transfers
// issued as a single disk command (the primitive explicit grouping relies
// on).
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

// The mechanical (spinning) device is the concrete base; ReadRun /
// WriteRun / WriteBatch are virtual so an alternative timing model
// (flash::FlashDevice) can substitute for it behind the same interface —
// everything above (cache, io engine, file systems) dispatches through
// the base pointer and never knows which media it is talking to.
class BlockDevice {
 public:
  BlockDevice(disk::DiskModel* disk,
              disk::SchedulerPolicy policy = disk::SchedulerPolicy::kCLook);
  virtual ~BlockDevice() = default;

  uint64_t block_count() const { return block_count_; }
  disk::DiskModel* disk() { return disk_; }
  disk::SchedulerPolicy policy() const { return policy_; }
  void set_policy(disk::SchedulerPolicy p) { policy_ = p; }
  // Scheduler's notion of the head position: where the next batch's service
  // order starts. Exposed so flush-plan previews (crash enumeration of a
  // syncer epoch) can reproduce the exact service order a WriteBatch would
  // use without issuing it.
  uint64_t head_lba() const { return head_lba_; }

  // Single-block transfers.
  Status ReadBlock(uint64_t bno, std::span<uint8_t> out);
  Status WriteBlock(uint64_t bno, std::span<const uint8_t> in);

  // Contiguous run issued as one disk command (scatter/gather read of a
  // group). out must hold count * kBlockSize bytes.
  virtual Status ReadRun(uint64_t bno, uint32_t count, std::span<uint8_t> out);
  virtual Status WriteRun(uint64_t bno, uint32_t count,
                          std::span<const uint8_t> in);

  // Batched write-back: orders ops with the scheduler, coalesces adjacent
  // block numbers into single disk commands, and issues them. This is how
  // delayed writes (and group writes) reach the disk.
  virtual Status WriteBatch(const std::vector<WriteOp>& ops);

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
  // Emits the per-command kBlockWrite ordering event (shared epoch logic)
  // so subclasses keep the exact commit-epoch semantics of the base.
  void RecordBlockWrite(uint64_t bno, uint32_t count, int64_t ts_ns);

  disk::DiskModel* disk_;
  disk::SchedulerPolicy policy_;
  uint64_t block_count_;
  uint64_t head_lba_ = 0;  // scheduler's notion of the head position
  BlockIoStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  uint64_t epoch_ = 0;      // monotonic commit-epoch counter
  bool in_batch_ = false;   // WriteRun calls share the batch's epoch

 private:
  // WriteBatch's scheduler input and coalescing buffer, kept across calls.
  std::vector<disk::PendingRequest> reqs_;
  std::vector<uint8_t> run_;
};

}  // namespace cffs::blk

#endif  // CFFS_BLOCKDEV_BLOCK_DEVICE_H_
