#include "src/sim/sim_env.h"

#include <vector>

#include "src/disk/image.h"

namespace cffs::sim {

namespace {

Status CheckDevice(const SimConfig& config) {
  if (KnownDevice(config.device)) return OkStatus();
  return InvalidArgument("unknown device \"" + config.device +
                         "\" (spinning | flash)");
}

}  // namespace

SimEnv::SimEnv(FsKind kind, const SimConfig& config)
    : kind_(kind), config_(config) {
  spans_ = std::make_unique<obs::SpanTracker>();
  sampler_ = std::make_unique<obs::TimeSeriesSampler>(SimTime::Millis(250));
  disk_ = std::make_unique<disk::DiskModel>(config.disk_spec, &clock_);
  disk_->set_spans(spans_.get());
  if (config.device == "flash") {
    auto flash = std::make_unique<flash::FlashDevice>(
        disk_.get(), &clock_, flash::DefaultFlash());
    flash->set_spans(spans_.get());
    flash_ = flash.get();
    device_ = std::move(flash);
  } else {
    device_ = std::make_unique<blk::BlockDevice>(disk_.get(),
                                                 config.scheduler);
  }
  cache_ = std::make_unique<cache::BufferCache>(device_.get(),
                                                config.cache_blocks);
  cache_->set_spans(spans_.get());
  engine_ = std::make_unique<io::IoEngine>(device_.get());
  readahead_ = std::make_unique<io::Readahead>(cache_.get(), engine_.get());
  if (config.syncer) {
    io::SyncerOptions so;
    so.interval = config.syncer_interval;
    so.max_age = config.syncer_max_age;
    so.dirty_high_watermark = config.dirty_high_watermark;
    syncer_ = std::make_unique<io::Syncer>(cache_.get(), engine_.get(), so);
    syncer_->set_spans(spans_.get());
  }
}

void SimEnv::Install(std::unique_ptr<fs::FsBase> fs) {
  fs->set_name_cache_enabled(config_.name_caches);
  fs->set_deterministic_mtime(config_.deterministic_mtime);
  fs->set_spans(spans_.get());
  fs_ = std::move(fs);
  path_ = std::make_unique<fs::PathOps>(fs_.get());
  AttachTrace();
}

Status SimEnv::MountFs() {
  if (kind_ == FsKind::kFfs) {
    ASSIGN_OR_RETURN(auto fs, fs::FfsFileSystem::Mount(
                                  cache_.get(), readahead_.get(), &clock_,
                                  config_.metadata));
    Install(std::move(fs));
  } else {
    ASSIGN_OR_RETURN(auto fs, fs::CffsFileSystem::Mount(
                                  cache_.get(), readahead_.get(), &clock_,
                                  config_.metadata));
    Install(std::move(fs));
  }
  return OkStatus();
}

Result<std::unique_ptr<SimEnv>> SimEnv::Create(FsKind kind,
                                               const SimConfig& config) {
  RETURN_IF_ERROR(CheckDevice(config));
  auto env = std::unique_ptr<SimEnv>(new SimEnv(kind, config));
  if (kind == FsKind::kFfs) {
    fs::FfsParams params;
    params.blocks_per_cg = config.blocks_per_cg;
    params.extent_alloc = config.extent_alloc;
    ASSIGN_OR_RETURN(auto fs, fs::FfsFileSystem::Format(
                                  env->cache_.get(), env->readahead_.get(),
                                  &env->clock_, params, config.metadata));
    env->Install(std::move(fs));
  } else {
    fs::CffsOptions options;
    options.blocks_per_cg = config.blocks_per_cg;
    options.group_blocks = config.group_blocks;
    options.extent_alloc = config.extent_alloc;
    options.embed_inodes =
        kind == FsKind::kEmbedOnly || kind == FsKind::kCffs;
    options.grouping = kind == FsKind::kGroupOnly || kind == FsKind::kCffs;
    ASSIGN_OR_RETURN(auto fs, fs::CffsFileSystem::Format(
                                  env->cache_.get(), env->readahead_.get(),
                                  &env->clock_, options, config.metadata));
    env->Install(std::move(fs));
  }
  return env;
}

Result<std::unique_ptr<SimEnv>> SimEnv::Open(
    const SimConfig& config,
    const std::function<Status(disk::DiskModel&)>& fill) {
  RETURN_IF_ERROR(CheckDevice(config));
  auto env = std::unique_ptr<SimEnv>(new SimEnv(FsKind::kCffs, config));
  RETURN_IF_ERROR(fill(*env->disk_));
  // The superblock is read off the platter without a command, so the
  // mount below issues exactly the commands a remount would.
  std::vector<uint8_t> sb(blk::kBlockSize);
  env->disk_->PeekSector(0, sb);
  SimConfig& c = env->config_;
  const uint64_t blocks = env->device_->block_count();
  if (fs::FfsFileSystem::IsSuperblock(sb)) {
    ASSIGN_OR_RETURN(const fs::FfsParams ffs,
                     fs::FfsFileSystem::ReadParams(sb, blocks));
    env->kind_ = FsKind::kFfs;
    c.blocks_per_cg = ffs.blocks_per_cg;
    c.extent_alloc = ffs.extent_alloc;
  } else if (fs::CffsFileSystem::IsSuperblock(sb)) {
    ASSIGN_OR_RETURN(const fs::CffsOptions cffs,
                     fs::CffsFileSystem::ReadOptions(sb, blocks));
    env->kind_ = cffs.embed_inodes
                     ? (cffs.grouping ? FsKind::kCffs : FsKind::kEmbedOnly)
                     : (cffs.grouping ? FsKind::kGroupOnly
                                      : FsKind::kConventional);
    c.blocks_per_cg = cffs.blocks_per_cg;
    c.group_blocks = cffs.group_blocks;
    c.extent_alloc = cffs.extent_alloc;
  } else {
    return Corrupt("no FFS or C-FFS superblock");
  }
  RETURN_IF_ERROR(env->MountFs());
  return env;
}

Result<std::unique_ptr<SimEnv>> SimEnv::OpenImage(const std::string& path,
                                                  SimConfig config) {
  SimClock load_clock;  // the loaded disk never runs
  ASSIGN_OR_RETURN(auto image, disk::LoadDiskImage(path, &load_clock));
  config.disk_spec = image->spec();
  return Open(config, [&](disk::DiskModel& platter) {
    platter.TakeContents(*image);
    return OkStatus();
  });
}

void SimEnv::EnableTrace(size_t capacity) {
  if (!trace_) trace_ = std::make_unique<obs::TraceRecorder>(capacity);
  AttachTrace();
}

void SimEnv::AttachTrace() {
  obs::TraceRecorder* t = trace_.get();
  disk_->set_trace(t);
  device_->set_trace(t);
  cache_->set_trace(t);
  if (syncer_) syncer_->set_trace(t);
  readahead_->set_trace(t);
  if (fs_) fs_->set_trace(t);
  sampler_->set_trace(t);
}

void SimEnv::ChargeCpu(uint64_t bytes) {
  SimTime t = kCpuPerOp;
  if (bytes > 0) t += kCpuPerKb * static_cast<int64_t>((bytes + 1023) / 1024);
  // Everything charged between here and the next op's start — this CPU
  // time plus any tick-triggered flush — is pre-op work the next span
  // absorbs, so its phase sum still equals its end-to-end latency.
  const int64_t start = clock_.now().nanos();
  spans_->OpenBoundary(start);
  clock_.AdvanceBy(t);
  spans_->Attribute(obs::Phase::kCpu, t.nanos(), start);
  // Op boundary: give the syncer a chance to age-flush or throttle. Running
  // it here (never from inside a file-system call) means a flush epoch can
  // never split an operation's metadata updates across commits.
  if (syncer_) {
    Status s = syncer_->Tick();
    if (!s.ok() && syncer_status_.ok()) syncer_status_ = s;
  }
  const int64_t now = clock_.now().nanos();
  if (sampler_->Due(now)) {
    obs::TimeSample s;
    s.ts_ns = now;
    s.dirty_blocks = cache_->dirty_count();
    s.resident_blocks = cache_->size();
    const uint64_t flushes = syncer_ ? syncer_->stats().throttle_flushes : 0;
    s.throttle_flushes = flushes - sampled_throttle_flushes_;
    const int64_t busy = flash_ ? flash_->flash_stats().busy_time.nanos()
                                : disk_->stats().busy_time.nanos();
    const int64_t wall = now - sampled_wall_ns_;
    if (wall > 0) {
      const int64_t permille = (busy - sampled_busy_ns_) * 1000 / wall;
      s.busy_permille = static_cast<uint32_t>(
          permille < 0 ? 0 : (permille > 1000 ? 1000 : permille));
    }
    if (sample_hook_) sample_hook_(&s);
    sampler_->Record(s);
    sampled_throttle_flushes_ = flushes;
    sampled_busy_ns_ = busy;
    sampled_wall_ns_ = now;
  }
}

Status SimEnv::ColdCache() {
  RETURN_IF_ERROR(fs_->Sync());
  cache_->InvalidateAll();
  readahead_->Reset();
  return OkStatus();
}

void SimEnv::ResetStats() {
  disk_->stats().Reset();
  device_->stats().Reset();
  if (flash_) flash_->flash_stats().Reset();
  cache_->stats().Reset();
  fs_->op_stats().Reset();
  engine_->stats().Reset();
  if (syncer_) syncer_->stats().Reset();
  readahead_->stats().Reset();
  spans_->Reset();
  const int64_t now = clock_.now().nanos();
  sampler_->Reset(now);
  sampled_busy_ns_ = 0;  // both device backends' busy stats zero after Reset
  sampled_wall_ns_ = now;
  sampled_throttle_flushes_ = 0;
}

Result<size_t> SimEnv::CrashAndRemount() {
  path_.reset();
  fs_.reset();
  const size_t lost = cache_->CrashDropAll();
  readahead_->Reset();
  RETURN_IF_ERROR(MountFs());
  return lost;
}

Status SimEnv::Remount() {
  RETURN_IF_ERROR(fs_->Sync());
  path_.reset();
  fs_.reset();
  cache_->InvalidateAll();
  readahead_->Reset();
  return MountFs();
}

}  // namespace cffs::sim
