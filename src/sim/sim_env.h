// SimEnv: wires clock + simulated disk + block device + buffer cache + a
// file system into one simulated machine, and charges host CPU time so the
// closed-loop request timing (which drives the disk model's prefetch and
// rotational-position behaviour) is realistic.
#ifndef CFFS_SIM_SIM_ENV_H_
#define CFFS_SIM_SIM_ENV_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/blockdev/block_device.h"
#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/flash/flash_device.h"
#include "src/fs/cffs/cffs.h"
#include "src/fs/common/path.h"
#include "src/fs/ffs/ffs.h"
#include "src/io/io_engine.h"
#include "src/io/readahead.h"
#include "src/io/syncer.h"
#include "src/obs/sampler.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/sim_time.h"

namespace cffs::sim {

// The five configurations the evaluation compares. kConventional is the
// paper's baseline (C-FFS with both techniques disabled behaves like it;
// kFfs is a separate FFS implementation with static inode tables).
enum class FsKind {
  kFfs,            // conventional FFS, static inode tables
  kConventional,   // C-FFS code base, both techniques off
  kEmbedOnly,      // embedded inodes only
  kGroupOnly,      // explicit grouping only
  kCffs,           // both techniques (full C-FFS)
};

std::string FsKindName(FsKind kind);

// True for the SimConfig::device names: "spinning" and "flash".
bool KnownDevice(std::string_view device);

struct SimConfig {
  disk::DiskSpec disk_spec = disk::SeagateSt31200();
  // Device backend: "spinning" (the mechanical model above, the paper's
  // 1996 hardware) or "flash" (src/flash channel/queue-depth model, the
  // ablation hardware). Both back their sectors with disk_spec's geometry,
  // so capacity and images are identical across backends. Any other value
  // makes SimEnv::Create return InvalidArgument.
  std::string device = "spinning";
  size_t cache_blocks = 2048;  // 8 MB file cache
  disk::SchedulerPolicy scheduler = disk::SchedulerPolicy::kCLook;
  fs::MetadataPolicy metadata = fs::MetadataPolicy::kSynchronous;
  uint16_t group_blocks = 16;
  uint32_t blocks_per_cg = 2048;
  // Extent-based allocation (direct extents + one indirect extent block
  // per inode, free-extent stacks in the allocator). Honored by both FFS
  // and C-FFS; persisted in the superblock so remount keeps it.
  bool extent_alloc = false;
  // Name-resolution acceleration (dentry/inode caches + directory indexes).
  // On by default; benchmarks flip it off to measure the ablation.
  bool name_caches = true;

  // --- async I/O subsystem (src/io) ---

  // Background deadline syncer for delayed write-back. Off by default: it
  // only matters under MetadataPolicy::kDelayed, where it bounds both the
  // age of dirty data (interval/max_age — the classic 30 s update-daemon
  // cadence) and the amount of it (dirty_high_watermark throttles writers).
  // Every flush commits the FULL dirty set as one WriteBatch epoch; see
  // io/syncer.h for why partial by-age flushing would be unsound.
  bool syncer = false;
  SimTime syncer_interval = SimTime::Seconds(30);
  SimTime syncer_max_age = SimTime::Seconds(30);
  double dirty_high_watermark = 0.75;

  // Stamp mtimes from the op sequence number instead of the clock so the
  // final disk image depends only on operation order (determinism tests
  // compare sync vs. delayed images byte-for-byte).
  bool deterministic_mtime = false;

  // Consumed by shard::ShardRouter::Create, not by SimEnv itself: the
  // number of independent shards, each a full SimEnv with its own disk
  // (0 means 1; at most kMaxShards).
  uint32_t shards = 0;

  bool operator==(const SimConfig&) const = default;
};

inline constexpr uint32_t kMaxShards = 64;

// The one text form of (kind, config): space-separated key=value tokens,
//   fs=c-ffs disk=seagate-st31200 device=spinning cache_blocks=2048 ...
// Keys are `fs` and the SimConfig field names (disk_spec is `disk`).
// Values: FsKindName's names; drives hp-c3653, seagate-barracuda,
// quantum-atlas-ii, seagate-st31200 or test-<cylinders>x<heads>x<sectors>,
// with -prefetch<N> appended when the on-board prefetch is not 64 sectors;
// spinning|flash; fcfs|clook|sstf; sync|delayed; durations as a whole
// number of s, ms, us or ns; the watermark in (0, 1]; booleans 0|1. Every
// key is printed; a disk_spec no name describes prints as disk=custom.
std::string ConfigString(FsKind kind, const SimConfig& config);

// Applies the tokens of `text` over *kind and *config; keys not named keep
// their values, and ParseConfig(ConfigString(k, c)) gives back (k, c). An
// unknown or repeated key, an unknown name, trailing garbage, a sign, or a
// value out of range (see config.cc) is InvalidArgument and changes
// nothing.
Status ParseConfig(std::string_view text, FsKind* kind, SimConfig* config);

class SimEnv {
 public:
  // Builds the machine and formats a fresh file system of the given kind.
  static Result<std::unique_ptr<SimEnv>> Create(FsKind kind,
                                                const SimConfig& config);

  // Builds the machine and mounts the file system on a platter that `fill`
  // writes first: an image file's contents, a crash-state clone or a peer
  // shard's disk. A failed fill fails the open with its status. The
  // superblock decides kind() and the file-system fields of config():
  // blocks_per_cg, extent_alloc and, on C-FFS, group_blocks. The rest of
  // `config`, disk_spec included, builds the machine. A platter that holds
  // neither file system is Corrupt.
  static Result<std::unique_ptr<SimEnv>> Open(
      const SimConfig& config,
      const std::function<Status(disk::DiskModel&)>& fill);

  // Open on the image file at `path` (src/disk/image.h): `config` on the
  // image's drive, holding the image's contents.
  static Result<std::unique_ptr<SimEnv>> OpenImage(const std::string& path,
                                                   SimConfig config);

  SimClock& clock() { return clock_; }
  disk::DiskModel& disk() { return *disk_; }
  blk::BlockDevice& device() { return *device_; }
  // The flash view of device(), or nullptr when config.device=="spinning".
  flash::FlashDevice* flash() { return flash_; }
  const flash::FlashDevice* flash() const { return flash_; }
  cache::BufferCache& cache() { return *cache_; }
  fs::FileSystem* fs() { return fs_.get(); }
  // The concrete implementation core, for layers above sim that need its
  // op counters (stats::Snapshot). Same object as fs().
  fs::FsBase* fs_base() { return fs_.get(); }
  fs::PathOps& path() { return *path_; }
  io::IoEngine& engine() { return *engine_; }
  // nullptr when SimConfig::syncer is off.
  io::Syncer* syncer() { return syncer_.get(); }
  io::Readahead& readahead() { return *readahead_; }
  // First error a background syncer tick produced, sticky (ChargeCpu has
  // no error channel). OkStatus when the syncer is off or healthy.
  Status syncer_status() const { return syncer_status_; }
  const SimConfig& config() const { return config_; }
  FsKind kind() const { return kind_; }

  // Host CPU model (1996-class machine): a fixed cost per file-system call
  // plus a per-kilobyte copy cost. These create the inter-request gaps the
  // drive's prefetch sees.
  static constexpr SimTime kCpuPerOp = SimTime::Micros(150);
  static constexpr SimTime kCpuPerKb = SimTime::Micros(10);

  // Charges host CPU time for one file-system call moving `bytes` bytes.
  void ChargeCpu(uint64_t bytes = 0);

  // Makes the next phase cold-cache: sync everything, then drop the file
  // cache (the on-board disk cache is left alone — a real benchmark can't
  // clear it either, but our phases move the head enough to invalidate it).
  Status ColdCache();

  // Zeroes disk/cache/fs statistics and the span attribution (not the
  // clock, and not the event trace — use trace()->Clear() for that).
  void ResetStats();

  // Starts recording typed events from every layer (disk I/O with timing
  // breakdown, cache hit/miss/eviction, group reads, fs ops, synchronous
  // metadata writes) into a bounded ring buffer. Idempotent; the recorder
  // survives Remount()/CrashAndRemount().
  void EnableTrace(size_t capacity = obs::TraceRecorder::kDefaultCapacity);

  // The active recorder, or nullptr if EnableTrace was never called.
  obs::TraceRecorder* trace() { return trace_.get(); }

  // Always-on cross-layer attribution: every clock advance is charged to
  // a typed phase of the op in flight (or the background bucket).
  obs::SpanTracker* spans() { return spans_.get(); }

  // Always-on time-series gauges, sampled at op boundaries every 250 ms of
  // simulated time.
  const obs::TimeSeriesSampler* sampler() const { return sampler_.get(); }

  // Lets a layer SimEnv doesn't know about (the mt driver) add its gauges
  // to each TimeSample just before it is recorded. nullptr uninstalls.
  void set_sample_hook(std::function<void(obs::TimeSample*)> hook) {
    sample_hook_ = std::move(hook);
  }

  // To gather every layer's counters plus the span attribution into one
  // machine-readable snapshot, use stats::Snapshot(env) — the snapshot
  // type lives above sim in the layer DAG (src/stats/collect.h).

  // Unmounts (sync) and remounts the file system, dropping all in-memory
  // state. Used to test persistence.
  Status Remount();

  // Simulates a crash: all cached state (including dirty, unwritten
  // blocks) is lost, then the file system is mounted from whatever reached
  // the disk. Returns the number of dirty blocks that were lost.
  Result<size_t> CrashAndRemount();

 private:
  SimEnv(FsKind kind, const SimConfig& config);

  // Points every layer at the current recorder (or detaches on nullptr).
  // Re-run after the file system is replaced by Remount/CrashAndRemount.
  void AttachTrace();

  // Makes `fs` the machine's file system: applies the config knobs that
  // live on the file-system object (name caches, deterministic mtimes),
  // then rebuilds the path layer and re-attaches the trace.
  void Install(std::unique_ptr<fs::FsBase> fs);

  // Mounts kind_'s file system from the cache (Open, Remount,
  // CrashAndRemount).
  Status MountFs();

  FsKind kind_;
  SimConfig config_;
  SimClock clock_;
  std::unique_ptr<disk::DiskModel> disk_;
  std::unique_ptr<blk::BlockDevice> device_;
  flash::FlashDevice* flash_ = nullptr;  // aliases device_ when flash
  std::unique_ptr<cache::BufferCache> cache_;
  std::unique_ptr<io::IoEngine> engine_;
  std::unique_ptr<io::Syncer> syncer_;
  std::unique_ptr<io::Readahead> readahead_;
  std::unique_ptr<fs::FsBase> fs_;
  std::unique_ptr<fs::PathOps> path_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::SpanTracker> spans_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::function<void(obs::TimeSample*)> sample_hook_;
  // Gauge baselines at the previous sample, for per-interval deltas.
  int64_t sampled_busy_ns_ = 0;
  int64_t sampled_wall_ns_ = 0;
  uint64_t sampled_throttle_flushes_ = 0;
  Status syncer_status_;
};

}  // namespace cffs::sim

#endif  // CFFS_SIM_SIM_ENV_H_
