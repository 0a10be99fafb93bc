// Tests for the I/O subsystem (src/io): the syncer's deadline and
// watermark triggers (and the writer backpressure they provide), its
// one-epoch flush through the device port, the readahead ramp and its
// accuracy accounting, a device error under a group read, and the
// determinism guarantee — a delayed-write run driven by the syncer must
// converge to exactly the bytes the synchronous path writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/io/io_engine.h"
#include "src/io/readahead.h"
#include "src/io/syncer.h"
#include "src/sim/sim_env.h"
#include "src/stats/collect.h"
#include "src/workload/smallfile.h"

namespace cffs {
namespace {

class IoTest : public ::testing::Test {
 protected:
  IoTest()
      : model_(disk::TestDisk(256, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 64),
        engine_(&dev_) {}

  // Dirty one zero-filled block through the cache.
  void DirtyBlock(uint64_t bno, uint8_t fill) {
    auto ref = cache_.GetZero(bno);
    ASSERT_TRUE(ref.ok());
    (*ref)->data()[0] = fill;
    cache_.MarkDirty(*ref);
  }

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  io::IoEngine engine_;
};

// --- Syncer ---------------------------------------------------------------

TEST_F(IoTest, SyncerDeadlineFlushesAgedDirtyData) {
  io::SyncerOptions so;
  so.interval = SimTime::Millis(10);
  so.max_age = SimTime::Millis(10);
  so.dirty_high_watermark = 0.9;
  io::Syncer syncer(&cache_, &engine_, so);

  DirtyBlock(5, 0xaa);
  // Young dirty data inside the interval: no flush yet.
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().flushes, 0u);
  EXPECT_EQ(cache_.dirty_count(), 1u);

  clock_.AdvanceBy(SimTime::Millis(20));
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().flushes, 1u);
  EXPECT_EQ(syncer.stats().deadline_flushes, 1u);
  EXPECT_EQ(syncer.stats().blocks_flushed, 1u);
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_EQ(cache_.oldest_dirty_ns(), -1);

  std::vector<uint8_t> back(blk::kBlockSize);
  ASSERT_TRUE(dev_.ReadRun(5, 1, back).ok());
  EXPECT_EQ(back[0], 0xaa);
}

TEST_F(IoTest, SyncerWatermarkThrottleFlushesRegardlessOfAge) {
  io::SyncerOptions so;
  so.interval = SimTime::Seconds(1000);  // the deadline never fires
  so.max_age = SimTime::Seconds(1000);
  so.dirty_high_watermark = 0.25;  // 16 of the 64 cache blocks
  io::Syncer syncer(&cache_, &engine_, so);

  for (uint64_t b = 0; b < 15; ++b) {
    DirtyBlock(200 + b, static_cast<uint8_t>(b));
  }
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().flushes, 0u);  // still under the watermark

  DirtyBlock(215, 0xff);
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().throttle_flushes, 1u);
  EXPECT_EQ(syncer.stats().blocks_flushed, 16u);
  EXPECT_EQ(cache_.dirty_count(), 0u);
}

TEST_F(IoTest, SyncerFlushGoesThroughTheEngineAsOneEpoch) {
  io::SyncerOptions so;
  io::Syncer syncer(&cache_, &engine_, so);
  for (uint64_t b : {50, 10, 30}) DirtyBlock(b, 1);
  ASSERT_TRUE(syncer.FlushNow().ok());
  EXPECT_EQ(engine_.stats().write_epochs, 1u);
  EXPECT_EQ(cache_.stats().writebacks, 3u);
}

// --- Readahead ------------------------------------------------------------

TEST_F(IoTest, StagedGroupBlocksAreAccountedHitOrWasted) {
  io::Readahead ra(&cache_, &engine_);
  ASSERT_TRUE(ra.StageGroup(100, 8, /*demand_bno=*/100).ok());
  EXPECT_EQ(ra.stats().group_stages, 1u);
  EXPECT_EQ(ra.stats().blocks_requested, 8u);
  EXPECT_EQ(dev_.stats().reads, 1u);  // one engine-staged command
  // The demanded block is not staged; its 7 siblings are.
  EXPECT_EQ(cache_.stats().readahead_staged, 7u);
  EXPECT_EQ(cache_.stats().group_reads, 1u);
  EXPECT_EQ(cache_.stats().group_blocks, 8u);

  {
    auto a = cache_.Get(101);
    ASSERT_TRUE(a.ok());
    auto b = cache_.Get(102);
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(cache_.stats().readahead_hits, 2u);
  // A second access of the same block is not a second readahead hit.
  cache_.Get(101).value().Release();
  EXPECT_EQ(cache_.stats().readahead_hits, 2u);

  // The untouched remainder is wasted when it leaves the cache.
  cache_.InvalidateAll();
  EXPECT_EQ(cache_.stats().readahead_wasted, 5u);
  EXPECT_EQ(cache_.stats().readahead_hits + cache_.stats().readahead_wasted,
            cache_.stats().readahead_staged);
}

TEST_F(IoTest, RampWindowDoublesOnStreaksAndResetsOnSeeks) {
  io::Readahead ra(&cache_, &engine_);
  EXPECT_EQ(ra.WindowFor(/*file=*/1, /*idx=*/0), 16u);
  ra.NoteRun(1, 0, 16);
  EXPECT_EQ(ra.WindowFor(1, 16), 32u);  // sequential: doubled
  ra.NoteRun(1, 16, 32);
  EXPECT_EQ(ra.WindowFor(1, 48), 64u);
  ra.NoteRun(1, 48, 64);
  EXPECT_EQ(ra.WindowFor(1, 112), 64u);  // capped at kMaxWindow
  ra.NoteRun(1, 112, 64);
  EXPECT_EQ(ra.WindowFor(1, 7), 16u);  // seek: back to kMinWindow
  EXPECT_EQ(ra.stats().ramp_resets, 1u);
  // Streams are per file: another file starts at kMinWindow.
  EXPECT_EQ(ra.WindowFor(2, 0), 16u);
}

// --- End to end: backpressure and determinism -----------------------------

TEST(IoEndToEndTest, SyncerBoundsDirtyDataUnderCreateStorm) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.cache_blocks = 256;
  config.metadata = fs::MetadataPolicy::kDelayed;
  config.syncer = true;
  config.syncer_interval = SimTime::Seconds(1000);  // throttle only
  config.syncer_max_age = SimTime::Seconds(1000);
  config.dirty_high_watermark = 0.25;
  auto env_or = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  sim::SimEnv* env = env_or->get();

  workload::SmallFileParams params;
  params.num_files = 200;
  params.num_dirs = 4;
  ASSERT_TRUE(workload::RunSmallFile(env, params).ok());
  ASSERT_TRUE(env->syncer_status().ok()) << env->syncer_status().ToString();

  const stats::MetricsSnapshot snap = stats::Snapshot(*env);
  EXPECT_GE(snap.syncer.throttle_flushes, 1u);
  EXPECT_GT(snap.syncer.blocks_flushed, 0u);
  // The watermark held: between op-boundary ticks a single operation can
  // push the dirty count past the threshold, but never run away with it.
  const size_t watermark = static_cast<size_t>(
      config.dirty_high_watermark * static_cast<double>(config.cache_blocks));
  EXPECT_LT(env->cache().dirty_count(), watermark + 32);
  // All cross-layer counter invariants hold on a syncer-enabled run.
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(IoEndToEndTest, GroupStageReadErrorFailsTheReadAndStagesNothing) {
  // A device error under a group read must reach the file read that
  // caused it, with nothing staged or inserted; once the fault clears, the
  // same read stages the group and returns the file's bytes.
  for (const char* device : {"spinning", "flash"}) {
    SCOPED_TRACE(device);
    sim::SimConfig config;
    config.device = device;
    auto env_or = sim::SimEnv::Create(sim::FsKind::kCffs, config);
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    sim::SimEnv* env = env_or->get();
    const std::vector<uint8_t> data(1024, 0x3c);
    ASSERT_TRUE(env->path().Mkdir("/d").ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(env->path().WriteFile("/d/f" + std::to_string(i), data).ok());
    }
    ASSERT_TRUE(env->fs()->Sync().ok());
    auto inum = env->path().Resolve("/d/f1");
    ASSERT_TRUE(inum.ok()) << inum.status().ToString();
    auto ino = env->fs_base()->LoadInode(*inum);
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    ASSERT_NE(ino->group_start, 0u);
    ASSERT_TRUE(env->ColdCache().ok());

    // The last sector of the group the cold read of f1 stages.
    const uint64_t bad =
        (ino->group_start + env->config().group_blocks) *
            blk::kSectorsPerBlock - 1;
    env->disk().InjectReadError(bad);
    const size_t resident = env->cache().size();
    auto failed = env->path().ReadFile("/d/f1");
    EXPECT_EQ(failed.status().code(), ErrorCode::kIoError);
    EXPECT_EQ(env->cache().stats().readahead_staged, 0u);
    EXPECT_EQ(env->cache().size(), resident);

    env->disk().ClearReadError(bad);
    const uint64_t commands = env->engine().stats().read_commands;
    auto back = env->path().ReadFile("/d/f1");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, data);
    EXPECT_EQ(env->engine().stats().read_commands, commands + 1);
    EXPECT_EQ(env->cache().stats().readahead_staged,
              env->config().group_blocks - 1u);
  }
}

// FNV-1a over every allocated chunk of the simulated platter.
uint64_t DiskImageHash(sim::SimEnv* env) {
  uint64_t h = 1469598103934665603ull;
  env->disk().ForEachChunk(
      [&h](uint64_t chunk_index, std::span<const uint8_t> data) {
        h ^= chunk_index;
        h *= 1099511628211ull;
        for (uint8_t b : data) {
          h ^= b;
          h *= 1099511628211ull;
        }
      });
  return h;
}

TEST(IoEndToEndTest, DelayedSyncerRunConvergesToSynchronousImage) {
  // With mtimes pinned to the op sequence, the only difference between the
  // synchronous path and the delayed path driven through the engine is
  // WHEN blocks reach the platter — after the final sync the images must
  // be byte-identical. This is the replay-determinism guarantee for the
  // whole async subsystem.
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    auto run = [kind](fs::MetadataPolicy policy, bool syncer) {
      sim::SimConfig config;
      config.disk_spec = disk::TestDisk(512, 4, 64);
      config.metadata = policy;
      config.deterministic_mtime = true;
      config.syncer = syncer;
      config.syncer_interval = SimTime::Millis(50);
      config.syncer_max_age = SimTime::Millis(50);
      auto env = sim::SimEnv::Create(kind, config);
      EXPECT_TRUE(env.ok()) << env.status().ToString();
      workload::SmallFileParams params;
      params.num_files = 120;
      params.num_dirs = 4;
      EXPECT_TRUE(workload::RunSmallFile(env->get(), params).ok());
      EXPECT_TRUE((*env)->fs()->Sync().ok());
      EXPECT_TRUE((*env)->syncer_status().ok());
      return DiskImageHash(env->get());
    };
    const uint64_t sync_image =
        run(fs::MetadataPolicy::kSynchronous, /*syncer=*/false);
    const uint64_t delayed_image =
        run(fs::MetadataPolicy::kDelayed, /*syncer=*/true);
    EXPECT_EQ(sync_image, delayed_image) << sim::FsKindName(kind);
  }
}

}  // namespace
}  // namespace cffs
