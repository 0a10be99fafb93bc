#include "src/blockdev/block_device.h"

#include <cstring>
#include <string>

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

Status BlockDevice::CheckRun(uint64_t bno, uint32_t count, size_t bytes,
                             const char* what) const {
  if (count == 0 || bno + count > block_count_) {
    return OutOfRange(std::string("block ") + what + " past end of device");
  }
  if (bytes < static_cast<size_t>(count) * kBlockSize) {
    return InvalidArgument(std::string(what) + " buffer too small");
  }
  return OkStatus();
}

Status BlockDevice::ReadRun(uint64_t bno, uint32_t count,
                            std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckRun(bno, count, out.size(), "read"));
  RETURN_IF_ERROR(
      MediaRead(bno, count, out.first(static_cast<size_t>(count) * kBlockSize)));
  ++stats_.reads;
  stats_.blocks_read += count;
  head_lba_ = (bno + count) * kSectorsPerBlock;
  return OkStatus();
}

Status BlockDevice::WriteRun(uint64_t bno, uint32_t count,
                             std::span<const uint8_t> in) {
  RETURN_IF_ERROR(CheckRun(bno, count, in.size(), "write"));
  cmds_.assign(1, {bno, count});
  blocks_.clear();
  for (uint32_t k = 0; k < count; ++k) {
    blocks_.push_back(in.data() + static_cast<size_t>(k) * kBlockSize);
  }
  ++epoch_;
  return MediaWrite({cmds_, blocks_});
}

std::vector<size_t> BlockDevice::ServiceOrder(
    const std::vector<WriteOp>& ops) const {
  std::vector<disk::PendingRequest> reqs;
  reqs.reserve(ops.size());
  for (const WriteOp& op : ops) {
    reqs.push_back({op.bno * kSectorsPerBlock, kSectorsPerBlock});
  }
  return disk::ScheduleOrder(reqs, head_lba_, policy_);
}

Status BlockDevice::WriteBatch(const std::vector<WriteOp>& ops) {
  if (ops.empty()) return OkStatus();
  for (const WriteOp& op : ops) {
    if (op.bno >= block_count_ || op.data == nullptr) {
      return InvalidArgument("bad batched write op");
    }
  }
  const std::vector<size_t> order = ServiceOrder(ops);

  // Coalesce runs of adjacent same-unit blocks in the service order into
  // single commands (scatter/gather).
  cmds_.clear();
  blocks_.clear();
  uint64_t unit = UINT64_MAX;  // the open command's unit
  for (const size_t i : order) {
    const WriteOp& op = ops[i];
    if (!cmds_.empty() && op.unit != UINT64_MAX && op.unit == unit &&
        op.bno == cmds_.back().bno + cmds_.back().count) {
      ++cmds_.back().count;
    } else {
      cmds_.push_back({op.bno, 1});
      unit = op.unit;
    }
    blocks_.push_back(op.data);
  }

  const SimTime start = disk_->now();
  ++epoch_;  // the whole batch commits under one epoch
  RETURN_IF_ERROR(MediaWrite({cmds_, blocks_}));
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kWriteBatch;
    e.ts_ns = start.nanos();
    e.a = ops.size();
    e.b = cmds_.size();
    trace_->Record(e);
  }
  return OkStatus();
}

void BlockDevice::Committed(const Command& cmd, int64_t ts_ns) {
  ++stats_.writes;
  stats_.blocks_written += cmd.count;
  head_lba_ = (cmd.bno + cmd.count) * kSectorsPerBlock;
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kBlockWrite;
    e.ts_ns = ts_ns;
    e.a = cmd.bno;
    e.b = cmd.count;
    e.aux = epoch_;
    trace_->Record(e);
  }
}

Status BlockDevice::MediaRead(uint64_t bno, uint32_t count,
                              std::span<uint8_t> out) {
  return disk_->Read(bno * kSectorsPerBlock, count * kSectorsPerBlock, out);
}

Status BlockDevice::MediaWrite(const WriteWindow& window) {
  size_t at = 0;  // the command's first block in window.blocks
  for (const Command& cmd : window.cmds) {
    const std::span<const uint8_t> data =
        Gather(window.blocks.subspan(at, cmd.count));
    at += cmd.count;
    RETURN_IF_ERROR(disk_->Write(cmd.bno * kSectorsPerBlock,
                                 cmd.count * kSectorsPerBlock, data));
    Committed(cmd, disk_->now().nanos());
  }
  return OkStatus();
}

std::span<const uint8_t> BlockDevice::Gather(
    std::span<const uint8_t* const> blocks) {
  const size_t bytes = blocks.size() * kBlockSize;
  for (size_t k = 1; k < blocks.size(); ++k) {
    if (blocks[k] != blocks[k - 1] + kBlockSize) {
      if (run_.size() < bytes) run_.resize(bytes);
      for (size_t b = 0; b < blocks.size(); ++b) {
        std::memcpy(run_.data() + b * kBlockSize, blocks[b], kBlockSize);
      }
      return {run_.data(), bytes};
    }
  }
  return {blocks[0], bytes};
}

}  // namespace cffs::blk
