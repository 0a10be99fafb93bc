#include "src/flash/flash_device.h"

#include <algorithm>
#include <queue>
#include <string>

namespace cffs::flash {

FlashDevice::FlashDevice(disk::DiskModel* disk, SimClock* clock,
                         FlashSpec spec)
    // Service order is submission order (FCFS): channel striping makes an
    // LBA elevator meaningless on flash. Adjacent same-unit blocks still
    // coalesce into one striped command.
    : blk::BlockDevice(disk, disk::SchedulerPolicy::kFcfs),
      clock_(clock),
      spec_(std::move(spec)) {
  if (spec_.channels == 0) spec_.channels = 1;
  if (spec_.queue_depth == 0) spec_.queue_depth = 1;
  if (spec_.pages_per_erase_block == 0) spec_.pages_per_erase_block = 1;
  programs_since_erase_.assign(spec_.channels, 0);
}

FlashDevice::WindowTimes FlashDevice::SimulateWindow(
    std::span<const Command> cmds, bool is_write) {
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

void FlashDevice::FinishWindow(const WindowTimes& w,
                               std::span<const Command> cmds, bool is_write,
                               SimTime start) {
  uint64_t blocks = 0;
  for (const Command& cmd : cmds) blocks += cmd.count;
  if (is_write) {
    flash_stats_.write_requests += cmds.size();
    flash_stats_.sectors_written += blocks * blk::kSectorsPerBlock;
  } else {
    flash_stats_.read_requests += cmds.size();
    flash_stats_.sectors_read += blocks * blk::kSectorsPerBlock;
  }

  clock_->AdvanceBy(SimTime::Nanos(w.elapsed));
  flash_stats_.busy_time += SimTime::Nanos(w.elapsed);
  flash_stats_.overhead_time += SimTime::Nanos(w.overhead);
  flash_stats_.wait_time += SimTime::Nanos(w.wait);
  flash_stats_.read_time += SimTime::Nanos(w.read);
  flash_stats_.program_time += SimTime::Nanos(w.program);
  flash_stats_.erase_time += SimTime::Nanos(w.erase);

  const uint64_t first_bno = cmds.front().bno;
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
    e.b = blocks;
    e.aux = is_write ? commit_epoch() : 0;
    e.wait_ns = w.wait;
    e.transfer_ns = w.read;
    e.program_ns = w.program;
    e.erase_ns = w.erase;
    e.overhead_ns = w.overhead;
    trace_->Record(e);
  }
}

Status FlashDevice::MediaRead(uint64_t bno, uint32_t count,
                              std::span<uint8_t> out) {
  const uint64_t lba = bno * blk::kSectorsPerBlock;
  if (disk()->HasReadError(lba, count * blk::kSectorsPerBlock)) {
    return IoError("read error in blocks " + std::to_string(bno) + "+" +
                   std::to_string(count));
  }
  const Command cmd{bno, count};
  const SimTime start = clock_->now();
  const WindowTimes w = SimulateWindow({&cmd, 1}, /*is_write=*/false);
  disk()->PeekSector(lba, out);
  FinishWindow(w, {&cmd, 1}, /*is_write=*/false, start);
  return OkStatus();
}

// Each block is stored straight from its own buffer. Every command of the
// window completes when the window does, so all share its end time.
Status FlashDevice::MediaWrite(const WriteWindow& window) {
  const SimTime start = clock_->now();
  const WindowTimes w = SimulateWindow(window.cmds, /*is_write=*/true);
  const uint8_t* const* block = window.blocks.data();
  for (const Command& cmd : window.cmds) {
    for (uint32_t k = 0; k < cmd.count; ++k, ++block) {
      RETURN_IF_ERROR(disk()->PokeSector((cmd.bno + k) * blk::kSectorsPerBlock,
                                         std::span(*block, blk::kBlockSize)));
    }
    Committed(cmd, start.nanos() + w.elapsed);
  }
  FinishWindow(w, window.cmds, /*is_write=*/true, start);
  return OkStatus();
}

}  // namespace cffs::flash
