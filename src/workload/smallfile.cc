#include "src/workload/smallfile.h"

#include <cassert>

#include "src/util/rng.h"

namespace cffs::workload {

namespace {

// File i lives in directory (i / files_per_dir): files are created
// directory by directory, the natural order for archive extraction and the
// order that gives FFS its best-case locality (favouring the baseline).
struct Layout {
  explicit Layout(const SmallFileParams& p) : params(p) {
    files_per_dir = (p.num_files + p.num_dirs - 1) / p.num_dirs;
  }
  std::string DirOf(uint32_t i) const {
    return "/d" + std::to_string(i / files_per_dir);
  }
  std::string PathOf(uint32_t i) const {
    return DirOf(i) + "/f" + std::to_string(i);
  }
  const SmallFileParams& params;
  uint32_t files_per_dir;
};

class PhaseRecorder {
 public:
  PhaseRecorder(sim::SimEnv* env, std::string name)
      : env_(env), name_(std::move(name)) {
    start_ = env->clock().now();
    reads0_ = env->device().stats().reads;
    writes0_ = env->device().stats().writes;
    syncs0_ = env->fs()->op_stats().sync_metadata_writes;
    groups0_ = env->fs()->op_stats().group_reads;
    disk0_ = env->disk().stats();
    if (env->flash()) flash0_ = env->flash()->flash_stats();
  }

  PhaseResult Finish(uint32_t files) const {
    PhaseResult r;
    r.phase = name_;
    r.seconds = (env_->clock().now() - start_).seconds();
    r.files_per_sec = r.seconds > 0 ? files / r.seconds : 0;
    r.disk_reads = env_->device().stats().reads - reads0_;
    r.disk_writes = env_->device().stats().writes - writes0_;
    r.sync_metadata_writes =
        env_->fs()->op_stats().sync_metadata_writes - syncs0_;
    r.group_reads = env_->fs()->op_stats().group_reads - groups0_;
    const disk::DiskStats& d = env_->disk().stats();
    r.disk_busy_s = (d.busy_time - disk0_.busy_time).seconds();
    r.disk_seek_s = (d.seek_time - disk0_.seek_time).seconds();
    r.disk_rotation_s = (d.rotation_time - disk0_.rotation_time).seconds();
    r.disk_transfer_s = (d.transfer_time - disk0_.transfer_time).seconds();
    r.disk_overhead_s = (d.overhead_time - disk0_.overhead_time).seconds();
    if (env_->flash()) {
      const flash::FlashStats& f = env_->flash()->flash_stats();
      r.flash = true;
      r.flash_busy_s = (f.busy_time - flash0_.busy_time).seconds();
      r.flash_overhead_s = (f.overhead_time - flash0_.overhead_time).seconds();
      r.flash_wait_s = (f.wait_time - flash0_.wait_time).seconds();
      r.flash_read_s = (f.read_time - flash0_.read_time).seconds();
      r.flash_program_s = (f.program_time - flash0_.program_time).seconds();
      r.flash_erase_s = (f.erase_time - flash0_.erase_time).seconds();
      r.flash_erases = f.erases - flash0_.erases;
    }
    return r;
  }

 private:
  sim::SimEnv* env_;
  std::string name_;
  SimTime start_;
  uint64_t reads0_, writes0_, syncs0_, groups0_;
  disk::DiskStats disk0_;
  flash::FlashStats flash0_;
};

}  // namespace

const PhaseResult& SmallFileResult::phase(const std::string& name) const {
  for (const PhaseResult& p : phases) {
    if (p.phase == name) return p;
  }
  assert(false && "no such phase");
  return phases.front();
}

Result<SmallFileResult> RunSmallFile(sim::SimEnv* env,
                                     const SmallFileParams& params) {
  const Layout layout(params);
  auto& p = env->path();
  Rng rng(params.seed);
  std::vector<uint8_t> payload(params.file_bytes);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.Next());

  SmallFileResult result;

  // Directories exist before the measured phases (the benchmark measures
  // file operations).
  for (uint32_t d = 0; d < params.num_dirs; ++d) {
    RETURN_IF_ERROR(p.MkdirAll("/d" + std::to_string(d)).status());
  }
  RETURN_IF_ERROR(env->ColdCache());
  env->ResetStats();

  // Phase 1: create and write.
  {
    PhaseRecorder rec(env, "create");
    for (uint32_t i = 0; i < params.num_files; ++i) {
      env->ChargeCpu();
      ASSIGN_OR_RETURN(fs::InodeNum ino, p.CreateFile(layout.PathOf(i)));
      env->ChargeCpu(params.file_bytes);
      ASSIGN_OR_RETURN(uint64_t n, env->fs()->Write(ino, 0, payload));
      if (n != params.file_bytes) return IoError("short write in create phase");
    }
    RETURN_IF_ERROR(env->fs()->Sync());
    result.phases.push_back(rec.Finish(params.num_files));
  }
  RETURN_IF_ERROR(env->ColdCache());

  // Phase 2: read in the same order.
  {
    PhaseRecorder rec(env, "read");
    std::vector<uint8_t> buf(params.file_bytes);
    for (uint32_t i = 0; i < params.num_files; ++i) {
      env->ChargeCpu();
      ASSIGN_OR_RETURN(fs::InodeNum ino, p.Resolve(layout.PathOf(i)));
      env->ChargeCpu(params.file_bytes);
      ASSIGN_OR_RETURN(uint64_t n, env->fs()->Read(ino, 0, buf));
      if (n != params.file_bytes) return IoError("short read in read phase");
    }
    result.phases.push_back(rec.Finish(params.num_files));
  }
  RETURN_IF_ERROR(env->ColdCache());

  // Phase 3: overwrite in the same order.
  {
    PhaseRecorder rec(env, "overwrite");
    for (uint32_t i = 0; i < params.num_files; ++i) {
      env->ChargeCpu();
      ASSIGN_OR_RETURN(fs::InodeNum ino, p.Resolve(layout.PathOf(i)));
      env->ChargeCpu(params.file_bytes);
      ASSIGN_OR_RETURN(uint64_t n, env->fs()->Write(ino, 0, payload));
      if (n != params.file_bytes) return IoError("short overwrite");
    }
    RETURN_IF_ERROR(env->fs()->Sync());
    result.phases.push_back(rec.Finish(params.num_files));
  }
  RETURN_IF_ERROR(env->ColdCache());

  // Phase 4: remove in the same order.
  {
    PhaseRecorder rec(env, "delete");
    for (uint32_t i = 0; i < params.num_files; ++i) {
      env->ChargeCpu();
      RETURN_IF_ERROR(p.Unlink(layout.PathOf(i)));
    }
    RETURN_IF_ERROR(env->fs()->Sync());
    result.phases.push_back(rec.Finish(params.num_files));
  }
  return result;
}

}  // namespace cffs::workload
