#include "src/flash/flash_device.h"

#include <algorithm>
#include <cstring>
#include <queue>

namespace cffs::flash {

namespace {

// Restores in_batch semantics on every exit path (mirrors the base class).
struct BatchScope {
  explicit BatchScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~BatchScope() { *flag_ = false; }
  bool* flag_;
};

}  // namespace

FlashDevice::FlashDevice(disk::DiskModel* disk, SimClock* clock,
                         FlashSpec spec)
    : blk::BlockDevice(disk, disk::SchedulerPolicy::kFcfs),
      clock_(clock),
      spec_(std::move(spec)) {
  if (spec_.channels == 0) spec_.channels = 1;
  if (spec_.queue_depth == 0) spec_.queue_depth = 1;
  if (spec_.pages_per_erase_block == 0) spec_.pages_per_erase_block = 1;
  programs_since_erase_.assign(spec_.channels, 0);
}

Status FlashDevice::CheckRun(uint64_t bno, uint32_t count, size_t buf_size,
                             bool is_write) const {
  if (count == 0 || bno + count > block_count_) {
    return is_write ? OutOfRange("block write past end of device")
                    : OutOfRange("block read past end of device");
  }
  if (buf_size < static_cast<size_t>(count) * blk::kBlockSize) {
    return is_write ? InvalidArgument("write buffer too small")
                    : InvalidArgument("read buffer too small");
  }
  return OkStatus();
}

FlashDevice::WindowTimes FlashDevice::SimulateWindow(
    const std::vector<Command>& cmds, bool is_write) {
  WindowTimes w;
  if (cmds.empty()) return w;

  const int64_t overhead = spec_.command_overhead.nanos();
  const int64_t page = is_write ? spec_.program_latency.nanos()
                                : spec_.read_latency.nanos();
  const int64_t erase = spec_.erase_latency.nanos();

  // Per-channel ready times and busy-time accumulators, window-relative.
  std::vector<int64_t> ready(spec_.channels, 0);
  std::vector<int64_t> ch_overhead(spec_.channels, 0);
  std::vector<int64_t> ch_page(spec_.channels, 0);
  std::vector<int64_t> ch_erase(spec_.channels, 0);

  // Completion times of in-flight commands (queue-depth gating).
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<int64_t>>
      inflight;

  for (const Command& cmd : cmds) {
    int64_t issue = 0;
    if (inflight.size() >= spec_.queue_depth) {
      issue = inflight.top();
      inflight.pop();
    }
    // Command processing on the first block's channel.
    const uint32_t fc = ChannelOf(cmd.bno);
    ready[fc] = std::max(issue, ready[fc]) + overhead;
    ch_overhead[fc] += overhead;
    int64_t done = ready[fc];

    for (uint32_t i = 0; i < cmd.count; ++i) {
      const uint32_t c = ChannelOf(cmd.bno + i);
      int64_t extra = 0;
      if (is_write) {
        if (++programs_since_erase_[c] >= spec_.pages_per_erase_block) {
          programs_since_erase_[c] = 0;
          extra = erase;
          ch_erase[c] += erase;
          ++flash_stats_.erases;
        }
      }
      ready[c] = std::max(issue, ready[c]) + extra + page;
      ch_page[c] += page;
      done = std::max(done, ready[c]);
    }
    inflight.push(done);
  }

  // Critical channel: the one that finishes the window.
  uint32_t critical = 0;
  for (uint32_t c = 1; c < spec_.channels; ++c) {
    if (ready[c] > ready[critical]) critical = c;
  }
  w.elapsed = ready[critical];
  w.overhead = ch_overhead[critical];
  if (is_write) {
    w.program = ch_page[critical];
  } else {
    w.read = ch_page[critical];
  }
  w.erase = ch_erase[critical];
  // The critical channel's busy intervals are disjoint inside the window,
  // so the remainder (idle behind queue-depth gating or channel skew) is
  // never negative and the five parts sum to elapsed exactly.
  w.wait = w.elapsed - w.overhead - w.read - w.program - w.erase;
  return w;
}

void FlashDevice::FinishWindow(const WindowTimes& w, uint64_t first_bno,
                               uint64_t total_blocks, bool is_write,
                               SimTime start) {
  clock_->AdvanceBy(SimTime::Nanos(w.elapsed));

  flash_stats_.busy_time += SimTime::Nanos(w.elapsed);
  flash_stats_.overhead_time += SimTime::Nanos(w.overhead);
  flash_stats_.wait_time += SimTime::Nanos(w.wait);
  flash_stats_.read_time += SimTime::Nanos(w.read);
  flash_stats_.program_time += SimTime::Nanos(w.program);
  flash_stats_.erase_time += SimTime::Nanos(w.erase);

  if (spans_) {
    spans_->AttributeFlash(start.nanos(), w.overhead, w.wait, w.read,
                           w.program, w.erase, first_bno);
  }
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFlashIo;
    e.ts_ns = start.nanos();
    e.dur_ns = w.elapsed;
    e.flag = is_write;
    e.a = first_bno;
    e.b = total_blocks;
    e.aux = is_write ? epoch_ : 0;
    e.wait_ns = w.wait;
    e.transfer_ns = w.read;
    e.program_ns = w.program;
    e.erase_ns = w.erase;
    e.overhead_ns = w.overhead;
    trace_->Record(e);
  }
}

Status FlashDevice::ReadRun(uint64_t bno, uint32_t count,
                            std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckRun(bno, count, out.size(), /*is_write=*/false));
  const uint64_t lba = bno * blk::kSectorsPerBlock;
  const uint32_t nsectors = count * blk::kSectorsPerBlock;
  if (disk_->HasReadError(lba, nsectors)) {
    return IoError("read error in blocks " + std::to_string(bno) + "+" +
                   std::to_string(count));
  }

  const SimTime start = clock_->now();
  const WindowTimes w = SimulateWindow({{bno, count}}, /*is_write=*/false);
  disk_->PeekSector(lba, out.first(static_cast<size_t>(count) * blk::kBlockSize));
  ++stats_.reads;
  stats_.blocks_read += count;
  head_lba_ = lba + nsectors;
  ++flash_stats_.read_requests;
  flash_stats_.sectors_read += nsectors;
  FinishWindow(w, bno, count, /*is_write=*/false, start);
  return OkStatus();
}

Status FlashDevice::WriteRun(uint64_t bno, uint32_t count,
                             std::span<const uint8_t> in) {
  RETURN_IF_ERROR(CheckRun(bno, count, in.size(), /*is_write=*/true));
  const uint64_t lba = bno * blk::kSectorsPerBlock;
  const uint32_t nsectors = count * blk::kSectorsPerBlock;

  const SimTime start = clock_->now();
  const WindowTimes w = SimulateWindow({{bno, count}}, /*is_write=*/true);
  RETURN_IF_ERROR(
      disk_->PokeSector(lba, in.first(static_cast<size_t>(count) * blk::kBlockSize)));
  ++stats_.writes;
  stats_.blocks_written += count;
  head_lba_ = lba + nsectors;
  ++flash_stats_.write_requests;
  flash_stats_.sectors_written += nsectors;
  // Epoch/ordering first (RecordBlockWrite bumps the epoch for standalone
  // writes), so the kFlashIo event carries the command's commit epoch.
  RecordBlockWrite(bno, count, clock_->now().nanos() + w.elapsed);
  FinishWindow(w, bno, count, /*is_write=*/true, start);
  return OkStatus();
}

Status FlashDevice::WriteBatch(const std::vector<blk::WriteOp>& ops) {
  if (ops.empty()) return OkStatus();
  for (const blk::WriteOp& op : ops) {
    if (op.bno >= block_count_ || op.data == nullptr) {
      return InvalidArgument("bad batched write op");
    }
  }
  ++epoch_;  // the whole batch commits under one epoch
  BatchScope scope(&in_batch_);

  // Service order is submission order (FCFS): channel striping makes an
  // LBA elevator meaningless on flash, and keeping the submission order
  // means flush-plan previews (crash enumeration) stay exact. Adjacent
  // same-unit blocks still coalesce into one striped command, exactly as
  // the base device coalesces them after scheduling.
  std::vector<Command> cmds;
  cmds.reserve(ops.size());
  std::vector<size_t> cmd_first;  // index into ops of each command's start
  size_t i = 0;
  while (i < ops.size()) {
    size_t j = i + 1;
    while (j < ops.size() && ops[j].bno == ops[j - 1].bno + 1 &&
           ops[j].unit != UINT64_MAX && ops[j].unit == ops[i].unit) {
      ++j;
    }
    cmds.push_back({ops[i].bno, static_cast<uint32_t>(j - i)});
    cmd_first.push_back(i);
    i = j;
  }

  const SimTime start = clock_->now();
  const WindowTimes w = SimulateWindow(cmds, /*is_write=*/true);

  uint64_t total_blocks = 0;
  for (size_t k = 0; k < cmds.size(); ++k) {
    const Command& cmd = cmds[k];
    for (uint32_t b = 0; b < cmd.count; ++b) {
      const blk::WriteOp& op = ops[cmd_first[k] + b];
      RETURN_IF_ERROR(disk_->PokeSector(op.bno * blk::kSectorsPerBlock,
                                        std::span(op.data, blk::kBlockSize)));
    }
    ++stats_.writes;
    stats_.blocks_written += cmd.count;
    ++flash_stats_.write_requests;
    flash_stats_.sectors_written +=
        static_cast<uint64_t>(cmd.count) * blk::kSectorsPerBlock;
    head_lba_ = (cmd.bno + cmd.count) * blk::kSectorsPerBlock;
    RecordBlockWrite(cmd.bno, cmd.count, start.nanos() + w.elapsed);
    total_blocks += cmd.count;
  }

  FinishWindow(w, cmds.front().bno, total_blocks, /*is_write=*/true, start);
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kWriteBatch;
    e.ts_ns = start.nanos();
    e.a = ops.size();
    e.b = cmds.size();
    trace_->Record(e);
  }
  return OkStatus();
}

}  // namespace cffs::flash
