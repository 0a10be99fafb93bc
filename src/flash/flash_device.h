// Flash/NVMe block device: channel/queue-depth timing over the same
// compact sector store the mechanical model uses.
//
// FlashDevice is a blk::BlockDevice that overrides only its two media
// hooks. The base runs the whole command path for both media: bounds and
// batch checks, scheduling (FCFS here) and coalescing, commit epochs,
// BlockIoStats and the kBlockWrite / kWriteBatch events. This class only
// times each window and moves its data. Data still lives in the wrapped
// DiskModel's store (each block's sectors up to its last non-zero one,
// reached through the time-free PeekSector/PokeSector accessors), so
// disk-image serialization, crash enumeration and sector fault injection
// keep working unchanged; only the *timing* is replaced.
//
// Timing model (see FlashSpec): no seek, no rotation. Block bno maps to
// channel bno % channels; a page op (read/program/erase) occupies its
// channel exclusively. Commands inside one service window (a single
// ReadRun/WriteRun, or every command of one WriteBatch) are list-scheduled
// against per-channel ready times with at most queue_depth commands in
// flight, so a batch's elapsed time is max-over-channels — not the serial
// seek chain of the spinning device. Every pages_per_erase_block programs
// on a channel charge one erase (steady-state GC).
//
// Exact attribution: each window's elapsed time is decomposed along the
// critical (last-finishing) channel into overhead + channel_wait + read +
// program + erase, which sum to the clock advance to the nanosecond —
// FlashStats and the span phases (obs::SpanTracker::AttributeFlash) both
// carry that decomposition, extending the repo's phase-sum == e2e
// invariant to the flash phases.
#ifndef CFFS_FLASH_FLASH_DEVICE_H_
#define CFFS_FLASH_FLASH_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/disk/disk_model.h"
#include "src/flash/flash_spec.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace cffs::flash {

struct FlashStats {
  uint64_t read_requests = 0;   // read commands issued
  uint64_t write_requests = 0;  // write commands issued
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  uint64_t erases = 0;          // erase-block reclaims charged (GC)

  // Critical-channel decomposition of the service windows:
  //   busy == overhead + wait + read + program + erase, exactly.
  SimTime overhead_time;  // command processing on the critical channel
  SimTime wait_time;      // critical channel idle behind QD / skew
  SimTime read_time;      // page reads on the critical channel
  SimTime program_time;   // page programs on the critical channel
  SimTime erase_time;     // erases on the critical channel
  SimTime busy_time;      // total window time (== total clock advance)

  uint64_t total_requests() const { return read_requests + write_requests; }
  void Reset() { *this = FlashStats{}; }
};

class FlashDevice : public blk::BlockDevice {
 public:
  // Wraps `disk` purely as the backing sector store; its mechanical timing
  // path is never used. `clock`, the clock `disk` runs on, is advanced by
  // each service window.
  FlashDevice(disk::DiskModel* disk, SimClock* clock, FlashSpec spec);

  const FlashSpec& flash_spec() const { return spec_; }
  FlashStats& flash_stats() { return flash_stats_; }
  const FlashStats& flash_stats() const { return flash_stats_; }

  // Charges each window's breakdown to the op in flight (obs/span.h).
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }

  uint32_t ChannelOf(uint64_t bno) const {
    return static_cast<uint32_t>(bno % spec_.channels);
  }

 protected:
  Status MediaRead(uint64_t bno, uint32_t count,
                   std::span<uint8_t> out) override;
  Status MediaWrite(const WriteWindow& window) override;

 private:
  // The exact decomposition of one window (all values in ns).
  struct WindowTimes {
    int64_t elapsed = 0;
    int64_t overhead = 0;
    int64_t wait = 0;
    int64_t read = 0;
    int64_t program = 0;
    int64_t erase = 0;
  };

  // List-schedules the commands across channels under the queue-depth
  // bound, mutating the persistent GC counters, and returns the window's
  // critical-channel decomposition.
  WindowTimes SimulateWindow(std::span<const Command> cmds, bool is_write);

  // Counts the window's commands, advances the clock, accumulates
  // FlashStats, attributes spans and emits the window's kFlashIo event.
  void FinishWindow(const WindowTimes& w, std::span<const Command> cmds,
                    bool is_write, SimTime start);

  SimClock* clock_;
  FlashSpec spec_;
  FlashStats flash_stats_;
  obs::SpanTracker* spans_ = nullptr;
  // Programs on each channel since its last GC erase (persistent device
  // state — survives stats resets).
  std::vector<uint32_t> programs_since_erase_;
};

}  // namespace cffs::flash

#endif  // CFFS_FLASH_FLASH_DEVICE_H_
