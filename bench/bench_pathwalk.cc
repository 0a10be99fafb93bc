// Path-walk benchmark for the name-resolution acceleration layer (dentry
// cache, per-directory hash indexes, inode cache — src/fs/common/
// name_cache.h). Not a figure from the paper: it quantifies the in-memory
// layer that sits in front of the paper's on-disk structures.
//
// Workload: a forest of deep directory chains with small files at the
// leaves. Phases per configuration:
//   build  — create the tree
//   cold   — resolve every file once from a cold buffer cache
//   hot    — resolve every file repeatedly (the dentry-hit path)
//   miss   — look up names that do not exist, twice per name (first pass
//            exercises the index probe, second the negative entries)
//
// Each file system runs with the caches on and off (--nocache ablation is
// the `name_caches` SimConfig flag). The headline number is the reduction
// in directory-block touches on the hot phase; the run fails unless it is
// at least 5x and every MetricsSnapshot invariant holds after every phase.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"

using namespace cffs;

namespace {

struct Params {
  uint32_t chains = 24;         // independent deep chains
  uint32_t depth = 8;           // directories per chain
  uint32_t files_per_leaf = 12; // files at the bottom of each chain
  uint32_t hot_rounds = 10;     // repeated resolves of every file
  uint32_t miss_names = 400;    // distinct absent names (each looked up 2x)
};

struct PhaseStats {
  double seconds = 0;
  fs::FsOpStats ops;
};

class Runner {
 public:
  Runner(sim::SimEnv* env, bench::Report* report, std::string config)
      : env_(env), report_(report), config_(std::move(config)) {}

  // Runs `fn`, then records one report row from the stats delta.
  template <typename Fn>
  Status Phase(const char* phase, Fn&& fn) {
    env_->ResetStats();
    const double t0 = env_->clock().now().seconds();
    RETURN_IF_ERROR(fn());
    PhaseStats s;
    s.seconds = env_->clock().now().seconds() - t0;
    s.ops = env_->fs()->op_stats();
    last_[phase] = s;

    obs::Json row = obs::Json::Object();
    row.Set("config", config_);
    row.Set("phase", phase);
    row.Set("seconds", s.seconds);
    row.Set("lookups", s.ops.lookups);
    row.Set("dentry_hits", s.ops.dentry_hits);
    row.Set("dentry_neg_hits", s.ops.dentry_neg_hits);
    row.Set("dentry_misses", s.ops.dentry_misses);
    row.Set("dir_block_reads", s.ops.dir_block_reads);
    row.Set("dir_index_builds", s.ops.dir_index_builds);
    row.Set("dir_index_probes", s.ops.dir_index_probes);
    row.Set("inode_cache_hits", s.ops.inode_cache_hits);
    row.Set("inode_cache_misses", s.ops.inode_cache_misses);
    report_->AddRow(std::move(row));

    std::printf("%-16s %-6s %9.3fs %10llu lookups %10llu dirblk\n",
                config_.c_str(), phase, s.seconds,
                static_cast<unsigned long long>(s.ops.lookups),
                static_cast<unsigned long long>(s.ops.dir_block_reads));
    // The accounting invariants must hold after every phase.
    bench::Check(report_, config_ + "/" + phase, env_);
    return OkStatus();
  }

  const PhaseStats& stats(const char* phase) { return last_[phase]; }

 private:
  sim::SimEnv* env_;
  bench::Report* report_;
  std::string config_;
  std::map<std::string, PhaseStats> last_;
};

std::vector<std::string> FilePaths(const Params& p) {
  std::vector<std::string> files;
  for (uint32_t c = 0; c < p.chains; ++c) {
    std::string dir = "c" + std::to_string(c);
    for (uint32_t d = 0; d < p.depth; ++d) dir += "/d" + std::to_string(d);
    for (uint32_t f = 0; f < p.files_per_leaf; ++f) {
      files.push_back(dir + "/f" + std::to_string(f));
    }
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  Params params;
  const bool quick = bench::ParseArgs(argc, argv).quick;
  if (quick) {
    params.chains = 8;
    params.depth = 6;
    params.files_per_leaf = 8;
    params.hot_rounds = 5;
    params.miss_names = 128;
  }
  const std::vector<std::string> files = FilePaths(params);
  std::printf("path-walk: %u chains x depth %u x %u files (%zu files), "
              "%u hot rounds\n",
              params.chains, params.depth, params.files_per_leaf,
              files.size(), params.hot_rounds);

  bench::Report report("pathwalk");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("chains", params.chains);
    p.Set("depth", params.depth);
    p.Set("files_per_leaf", params.files_per_leaf);
    p.Set("hot_rounds", params.hot_rounds);
    p.Set("miss_names", params.miss_names);
    report.Set("params", std::move(p));
  }

  // hot-phase dir-block touches per (kind, caches on/off)
  double hot_blocks[2][2] = {};
  const sim::FsKind kinds[] = {sim::FsKind::kFfs, sim::FsKind::kCffs};

  for (int k = 0; k < 2; ++k) {
    for (int cached = 1; cached >= 0; --cached) {
      sim::SimConfig config;
      config.name_caches = cached != 0;
      const std::string config_name =
          sim::FsKindName(kinds[k]) + (cached ? "" : "+nocache");
      std::unique_ptr<sim::SimEnv> env_owner =
          bench::NewMachine(config_name, kinds[k], config);
      sim::SimEnv* env = env_owner.get();
      Runner run(env, &report, config_name);

      Status st = run.Phase("build", [&]() -> Status {
        for (uint32_t c = 0; c < params.chains; ++c) {
          std::string dir = "c" + std::to_string(c);
          for (uint32_t d = 0; d < params.depth; ++d) {
            dir += "/d" + std::to_string(d);
          }
          RETURN_IF_ERROR(env->path().MkdirAll(dir).status());
        }
        for (const std::string& f : files) {
          RETURN_IF_ERROR(env->path().CreateFile(f).status());
          env->ChargeCpu(0);
        }
        return env->fs()->Sync();
      });

      if (st.ok()) {
        st = run.Phase("cold", [&]() -> Status {
          RETURN_IF_ERROR(env->ColdCache());
          for (const std::string& f : files) {
            RETURN_IF_ERROR(env->path().Resolve(f).status());
            env->ChargeCpu(0);
          }
          return OkStatus();
        });
      }

      if (st.ok()) {
        st = run.Phase("hot", [&]() -> Status {
          for (uint32_t r = 0; r < params.hot_rounds; ++r) {
            for (const std::string& f : files) {
              RETURN_IF_ERROR(env->path().Resolve(f).status());
              env->ChargeCpu(0);
            }
          }
          return OkStatus();
        });
        hot_blocks[k][cached] =
            static_cast<double>(run.stats("hot").ops.dir_block_reads);
      }

      if (st.ok()) {
        st = run.Phase("miss", [&]() -> Status {
          const fs::InodeNum root = env->fs()->root();
          for (int pass = 0; pass < 2; ++pass) {
            for (uint32_t m = 0; m < params.miss_names; ++m) {
              Result<fs::InodeNum> r =
                  env->fs()->Lookup(root, "absent" + std::to_string(m));
              if (r.ok()) return IoError("phantom name resolved");
              if (r.status().code() != ErrorCode::kNotFound) {
                return r.status();
              }
              env->ChargeCpu(0);
            }
          }
          return OkStatus();
        });
      }

      if (!st.ok()) bench::Die(config_name, st);
      bench::AddMachine(&report, config_name, env);
    }
  }

  // Headline: directory-block touches saved on the hot (repeated-resolve)
  // phase, caches off vs on.
  bool pass = true;
  obs::Json ratios = obs::Json::Object();
  for (int k = 0; k < 2; ++k) {
    const double off = hot_blocks[k][0];
    const double on = hot_blocks[k][1];
    const double ratio = off / (on > 0 ? on : 1.0);
    ratios.Set(sim::FsKindName(kinds[k]), ratio);
    std::printf("%-14s hot-resolve dir-block touches: %.0f off vs %.0f on "
                "(%.1fx fewer)\n",
                sim::FsKindName(kinds[k]).c_str(), off, on, ratio);
    if (ratio < 5.0) {
      std::fprintf(stderr, "FAIL: %s reduction %.1fx < 5x target\n",
                   sim::FsKindName(kinds[k]).c_str(), ratio);
      pass = false;
    }
  }
  report.Set("hot_dir_block_reduction", std::move(ratios));
  report.Set("pass", pass);
  report.Write();
  return pass ? 0 : 1;
}
