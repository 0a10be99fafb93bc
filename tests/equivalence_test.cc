// Cross-implementation differential testing: the same random operation
// sequence applied to every file-system configuration (and to an in-memory
// reference model) must produce the same logical state. This is the
// strongest correctness property in the suite — any divergence between the
// five configurations or drift from POSIX-ish semantics shows up here.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/sim/sim_env.h"
#include "src/util/rng.h"

namespace cffs {
namespace {

using sim::FsKind;

// In-memory reference: path -> contents (files) / nullopt (directories).
struct RefModel {
  std::map<std::string, std::optional<std::vector<uint8_t>>> entries;

  bool IsDir(const std::string& p) const {
    auto it = entries.find(p);
    return it != entries.end() && !it->second.has_value();
  }
  bool Exists(const std::string& p) const { return entries.count(p) != 0; }
  bool HasChildren(const std::string& p) const {
    const std::string prefix = p + "/";
    auto it = entries.upper_bound(p);
    return it != entries.end() && it->first.compare(0, prefix.size(), prefix) == 0;
  }
};

// One random mutation step, applied to both the model and a file system;
// returns the op description for failure messages.
class OpDriver {
 public:
  explicit OpDriver(uint64_t seed) : rng_(seed) {}

  // Generates the next operation (deterministic); both arms apply it.
  struct Op {
    enum Kind { kWrite, kMkdir, kUnlink, kRmdir, kRename, kTruncate, kAppend } kind;
    std::string a, b;
    uint64_t size = 0;
    uint8_t fill = 0;
  };

  Op Next(const RefModel& model) {
    Op op;
    const double roll = rng_.NextDouble();
    op.a = PickPath(model, roll < 0.45 ? /*fresh=*/true : false);
    if (roll < 0.30) {
      op.kind = Op::kWrite;
      op.size = rng_.Below(20000);
      op.fill = static_cast<uint8_t>(rng_.Next());
    } else if (roll < 0.45) {
      op.kind = Op::kMkdir;
    } else if (roll < 0.60) {
      op.kind = Op::kUnlink;
    } else if (roll < 0.70) {
      op.kind = Op::kRmdir;
    } else if (roll < 0.80) {
      op.kind = Op::kRename;
      op.b = PickPath(model, rng_.Chance(0.5));
    } else if (roll < 0.90) {
      op.kind = Op::kTruncate;
      op.size = rng_.Below(30000);
    } else {
      op.kind = Op::kAppend;
      op.size = rng_.Below(8000);
      op.fill = static_cast<uint8_t>(rng_.Next());
    }
    return op;
  }

 private:
  std::string PickPath(const RefModel& model, bool fresh) {
    if (!fresh && !model.entries.empty() && rng_.Chance(0.7)) {
      auto it = model.entries.begin();
      std::advance(it, rng_.Below(model.entries.size()));
      return it->first;
    }
    // A shallow random path under a small namespace so collisions happen.
    std::string p;
    const int depth = static_cast<int>(rng_.Range(1, 3));
    for (int i = 0; i < depth; ++i) {
      p += "/p" + std::to_string(rng_.Below(6));
    }
    return p;
  }

  Rng rng_;
};

// Applies op to the reference model, returning whether it should succeed.
bool ApplyToModel(RefModel* m, const OpDriver::Op& op) {
  auto parent_ok = [&](const std::string& p) {
    const size_t slash = p.rfind('/');
    const std::string parent = slash == 0 ? "" : p.substr(0, slash);
    return parent.empty() || m->IsDir(parent);
  };
  switch (op.kind) {
    case OpDriver::Op::kWrite: {
      if (m->IsDir(op.a) || !parent_ok(op.a)) return false;
      m->entries[op.a] = std::vector<uint8_t>(op.size, op.fill);
      return true;
    }
    case OpDriver::Op::kMkdir: {
      if (m->Exists(op.a) || !parent_ok(op.a)) return false;
      m->entries[op.a] = std::nullopt;
      return true;
    }
    case OpDriver::Op::kUnlink: {
      if (!m->Exists(op.a) || m->IsDir(op.a)) return false;
      m->entries.erase(op.a);
      return true;
    }
    case OpDriver::Op::kRmdir: {
      if (!m->IsDir(op.a) || m->HasChildren(op.a)) return false;
      m->entries.erase(op.a);
      return true;
    }
    case OpDriver::Op::kRename: {
      if (!m->Exists(op.a) || m->Exists(op.b) || op.a == op.b) return false;
      if (!parent_ok(op.b)) return false;
      // Renaming a directory under itself is illegal.
      if (m->IsDir(op.a) && op.b.compare(0, op.a.size() + 1, op.a + "/") == 0) {
        return false;
      }
      // Move the node and any children.
      std::map<std::string, std::optional<std::vector<uint8_t>>> moved;
      for (auto it = m->entries.begin(); it != m->entries.end();) {
        if (it->first == op.a ||
            it->first.compare(0, op.a.size() + 1, op.a + "/") == 0) {
          moved[op.b + it->first.substr(op.a.size())] = std::move(it->second);
          it = m->entries.erase(it);
        } else {
          ++it;
        }
      }
      for (auto& [k, v] : moved) m->entries[k] = std::move(v);
      return true;
    }
    case OpDriver::Op::kTruncate: {
      if (!m->Exists(op.a) || m->IsDir(op.a)) return false;
      auto& data = *m->entries[op.a];
      data.resize(op.size, 0);
      return true;
    }
    case OpDriver::Op::kAppend: {
      if (!m->Exists(op.a) || m->IsDir(op.a)) return false;
      auto& data = *m->entries[op.a];
      data.insert(data.end(), op.size, op.fill);
      return true;
    }
  }
  return false;
}

// Applies op to a real file system; returns ok-ness.
bool ApplyToFs(sim::SimEnv* env, const OpDriver::Op& op) {
  auto& p = env->path();
  switch (op.kind) {
    case OpDriver::Op::kWrite:
      return p.WriteFile(op.a, std::vector<uint8_t>(op.size, op.fill)).ok();
    case OpDriver::Op::kMkdir:
      return p.Mkdir(op.a).ok();
    case OpDriver::Op::kUnlink:
      return p.Unlink(op.a).ok();
    case OpDriver::Op::kRmdir:
      return p.Rmdir(op.a).ok();
    case OpDriver::Op::kRename:
      return p.Rename(op.a, op.b).ok();
    case OpDriver::Op::kTruncate: {
      auto ino = p.Resolve(op.a);
      if (!ino.ok()) return false;
      auto attr = env->fs()->GetAttr(*ino);
      if (!attr.ok() || attr->type != fs::FileType::kRegular) return false;
      return env->fs()->Truncate(*ino, op.size).ok();
    }
    case OpDriver::Op::kAppend: {
      auto ino = p.Resolve(op.a);
      if (!ino.ok()) return false;
      auto attr = env->fs()->GetAttr(*ino);
      if (!attr.ok() || attr->type != fs::FileType::kRegular) return false;
      std::vector<uint8_t> data(op.size, op.fill);
      return env->fs()->Write(*ino, attr->size, data).ok();
    }
  }
  return false;
}

// Full-state comparison between model and fs.
void ExpectSameState(const RefModel& model, sim::SimEnv* env,
                     const std::string& label) {
  for (const auto& [path, contents] : model.entries) {
    auto ino = env->path().Resolve(path);
    ASSERT_TRUE(ino.ok()) << label << ": missing " << path;
    auto attr = env->fs()->GetAttr(*ino);
    ASSERT_TRUE(attr.ok()) << label << ": " << path;
    if (contents.has_value()) {
      ASSERT_EQ(attr->type, fs::FileType::kRegular) << label << ": " << path;
      auto data = env->path().ReadFile(path);
      ASSERT_TRUE(data.ok()) << label << ": " << path;
      ASSERT_EQ(*data, *contents) << label << ": " << path;
    } else {
      ASSERT_EQ(attr->type, fs::FileType::kDirectory) << label << ": " << path;
    }
  }
}

// One machine under test: a file-system kind on the small test disk.
struct Arm {
  FsKind kind;
  bool name_caches = true;
  size_t cache_blocks = sim::SimConfig{}.cache_blocks;
  fs::MetadataPolicy metadata = fs::MetadataPolicy::kSynchronous;
};

// Drives `steps` random ops through every arm and the reference model,
// compares full state every 97 steps, then remounts each arm and compares
// again.
void RunEquivalence(const std::vector<Arm>& arms, uint64_t seed, int steps) {
  std::vector<std::string> labels;
  std::vector<std::unique_ptr<sim::SimEnv>> envs;
  for (const Arm& a : arms) {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);
    config.blocks_per_cg = 1024;
    config.name_caches = a.name_caches;
    config.cache_blocks = a.cache_blocks;
    config.metadata = a.metadata;
    auto env = sim::SimEnv::Create(a.kind, config);
    ASSERT_TRUE(env.ok());
    envs.push_back(std::move(*env));
    labels.push_back(sim::FsKindName(a.kind) +
                     (a.name_caches ? "" : "+nocache"));
  }

  RefModel model;
  OpDriver driver(seed);
  for (int step = 0; step < steps; ++step) {
    const OpDriver::Op op = driver.Next(model);
    const bool expect_ok = ApplyToModel(&model, op);
    for (size_t k = 0; k < envs.size(); ++k) {
      const bool got_ok = ApplyToFs(envs[k].get(), op);
      ASSERT_EQ(got_ok, expect_ok)
          << labels[k] << " step " << step << " op "
          << op.kind << " a=" << op.a << " b=" << op.b;
    }
    if (step % 97 == 0) {
      for (size_t k = 0; k < envs.size(); ++k) {
        ExpectSameState(model, envs[k].get(), labels[k]);
      }
    }
  }
  // Remount everything mid-flight and compare final state.
  for (size_t k = 0; k < envs.size(); ++k) {
    ASSERT_TRUE(envs[k]->Remount().ok());
    ExpectSameState(model, envs[k].get(), labels[k]);
  }
}

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceTest, RandomOpsMatchReferenceOnAllConfigs) {
  // The five configurations, plus cache-ablated runs of the two headline
  // file systems: name-resolution caching must never change semantics.
  RunEquivalence({{FsKind::kFfs},
                  {FsKind::kConventional},
                  {FsKind::kEmbedOnly},
                  {FsKind::kGroupOnly},
                  {FsKind::kCffs},
                  {FsKind::kFfs, /*name_caches=*/false},
                  {FsKind::kCffs, /*name_caches=*/false}},
                 GetParam(), 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// Small caches evict in the middle of a run insert (a C-FFS group read or
// a readahead stage): the insert must never replace a block that was dirty
// when the run was read with the run's stale copy of it. Each case is a
// seed that lost file data that way before the insert skipped such blocks.
struct SmallCacheCase {
  size_t cache_blocks;
  fs::MetadataPolicy metadata;
  uint64_t seed;
};

class SmallCacheEquivalenceTest
    : public ::testing::TestWithParam<SmallCacheCase> {};

TEST_P(SmallCacheEquivalenceTest, RandomOpsMatchReferenceOnAllKinds) {
  const SmallCacheCase& c = GetParam();
  std::vector<Arm> arms;
  for (FsKind kind : {FsKind::kFfs, FsKind::kConventional, FsKind::kEmbedOnly,
                      FsKind::kGroupOnly, FsKind::kCffs}) {
    arms.push_back({kind, /*name_caches=*/true, c.cache_blocks, c.metadata});
  }
  RunEquivalence(arms, c.seed, 1500);
}

std::string SmallCacheName(
    const ::testing::TestParamInfo<SmallCacheCase>& info) {
  const SmallCacheCase& c = info.param;
  return std::to_string(c.cache_blocks) + "Blocks" +
         (c.metadata == fs::MetadataPolicy::kSynchronous ? "Sync"
                                                         : "Delayed") +
         "Seed" + std::to_string(c.seed);
}

constexpr fs::MetadataPolicy kSync = fs::MetadataPolicy::kSynchronous;
constexpr fs::MetadataPolicy kDelayed = fs::MetadataPolicy::kDelayed;

INSTANTIATE_TEST_SUITE_P(
    StaleRunInsert, SmallCacheEquivalenceTest,
    ::testing::Values(SmallCacheCase{32, kSync, 3},
                      SmallCacheCase{32, kDelayed, 1},
                      SmallCacheCase{64, kSync, 5},
                      SmallCacheCase{64, kDelayed, 3},
                      SmallCacheCase{128, kSync, 10},
                      SmallCacheCase{128, kDelayed, 11}),
    SmallCacheName);

}  // namespace
}  // namespace cffs
