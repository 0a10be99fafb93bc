#include "src/blockdev/block_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cffs::blk {

BlockDevice::BlockDevice(disk::DiskModel* disk, disk::SchedulerPolicy policy)
    : disk_(disk),
      policy_(policy),
      block_count_(disk->total_sectors() / kSectorsPerBlock) {}

Status BlockDevice::ReadBlock(uint64_t bno, std::span<uint8_t> out) {
  return ReadRun(bno, 1, out);
}

Status BlockDevice::WriteBlock(uint64_t bno, std::span<const uint8_t> in) {
  return WriteRun(bno, 1, in);
}

Status BlockDevice::ReadRun(uint64_t bno, uint32_t count,
                            std::span<uint8_t> out) {
  if (count == 0 || bno + count > block_count_) {
    return OutOfRange("block read past end of device");
  }
  if (out.size() < static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument("read buffer too small");
  }
  const uint64_t lba = bno * kSectorsPerBlock;
  RETURN_IF_ERROR(disk_->Read(lba, count * kSectorsPerBlock, out));
  ++stats_.reads;
  stats_.blocks_read += count;
  head_lba_ = lba + count * kSectorsPerBlock;
  return OkStatus();
}

Status BlockDevice::WriteRun(uint64_t bno, uint32_t count,
                             std::span<const uint8_t> in) {
  if (count == 0 || bno + count > block_count_) {
    return OutOfRange("block write past end of device");
  }
  if (in.size() < static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument("write buffer too small");
  }
  const uint64_t lba = bno * kSectorsPerBlock;
  RETURN_IF_ERROR(disk_->Write(lba, count * kSectorsPerBlock, in));
  ++stats_.writes;
  stats_.blocks_written += count;
  head_lba_ = lba + count * kSectorsPerBlock;
  RecordBlockWrite(bno, count, disk_->now().nanos());
  return OkStatus();
}

void BlockDevice::RecordBlockWrite(uint64_t bno, uint32_t count,
                                   int64_t ts_ns) {
  if (!in_batch_) ++epoch_;
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBlockWrite;
    e.ts_ns = ts_ns;
    e.a = bno;
    e.b = count;
    e.aux = epoch_;
    trace_->Record(e);
  }
}

namespace {
// Restores in_batch_ = false on every exit path (RETURN_IF_ERROR included).
struct BatchScope {
  explicit BatchScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~BatchScope() { *flag_ = false; }
  bool* flag_;
};
}  // namespace

Status BlockDevice::WriteBatch(const std::vector<WriteOp>& ops) {
  if (ops.empty()) return OkStatus();
  ++epoch_;  // the whole batch commits under one epoch
  BatchScope scope(&in_batch_);

  reqs_.clear();
  for (const WriteOp& op : ops) {
    if (op.bno >= block_count_ || op.data == nullptr) {
      return InvalidArgument("bad batched write op");
    }
    reqs_.push_back({op.bno * kSectorsPerBlock, kSectorsPerBlock});
  }
  const std::vector<size_t> order =
      disk::ScheduleOrder(reqs_, head_lba_, policy_);

  // Coalesce runs of adjacent same-unit blocks in the service order into
  // single commands (scatter/gather).
  const SimTime batch_start = disk_->now();
  uint64_t commands = 0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i + 1;
    while (j < order.size() &&
           ops[order[j]].bno == ops[order[j - 1]].bno + 1 &&
           ops[order[j]].unit != UINT64_MAX &&
           ops[order[j]].unit == ops[order[i]].unit) {
      ++j;
    }
    const uint32_t count = static_cast<uint32_t>(j - i);
    const uint64_t start_bno = ops[order[i]].bno;
    if (count == 1) {
      RETURN_IF_ERROR(WriteRun(start_bno, 1,
                               std::span(ops[order[i]].data, kBlockSize)));
    } else {
      const size_t bytes = static_cast<size_t>(count) * kBlockSize;
      if (run_.size() < bytes) run_.resize(bytes);
      for (size_t k = 0; k < count; ++k) {
        std::memcpy(run_.data() + k * kBlockSize, ops[order[i + k]].data,
                    kBlockSize);
      }
      RETURN_IF_ERROR(
          WriteRun(start_bno, count, std::span(run_.data(), bytes)));
    }
    ++commands;
    i = j;
  }
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kWriteBatch;
    e.ts_ns = batch_start.nanos();
    e.a = ops.size();
    e.b = commands;
    trace_->Record(e);
  }
  return OkStatus();
}

}  // namespace cffs::blk
