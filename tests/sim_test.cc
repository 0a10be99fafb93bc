// Tests for the simulation harness, the latency histogram, and the
// interference workload.
#include <gtest/gtest.h>

#include "src/util/histogram.h"
#include "src/workload/interference.h"

namespace cffs {
namespace {

sim::SimConfig SmallConfig() {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  return config;
}

// Writes every chunk of `from` onto `to`: a fill for sim::SimEnv::Open.
Status CopyPlatter(const disk::DiskModel& from, disk::DiskModel& to) {
  Status restored = OkStatus();
  from.ForEachChunk([&](uint64_t chunk, std::span<const uint8_t> bytes) {
    if (restored.ok()) restored = to.RestoreChunk(chunk, bytes);
  });
  return restored;
}

TEST(SimEnvTest, ChargeCpuAdvancesClock) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, SmallConfig());
  ASSERT_TRUE(env.ok());
  const SimTime t0 = (*env)->clock().now();
  (*env)->ChargeCpu();
  const SimTime t1 = (*env)->clock().now();
  EXPECT_EQ(t1 - t0, sim::SimEnv::kCpuPerOp);
  (*env)->ChargeCpu(2048);  // 2 KB of copying on top
  const SimTime t2 = (*env)->clock().now();
  EXPECT_EQ(t2 - t1, sim::SimEnv::kCpuPerOp + sim::SimEnv::kCpuPerKb * 2);
}

TEST(SimEnvTest, ColdCacheForcesDiskReads) {
  auto env = sim::SimEnv::Create(sim::FsKind::kConventional, SmallConfig());
  ASSERT_TRUE(env.ok());
  std::vector<uint8_t> data(4096, 1);
  ASSERT_TRUE((*env)->path().WriteFile("/f", data).ok());
  // Warm: no disk reads.
  (*env)->ResetStats();
  ASSERT_TRUE((*env)->path().ReadFile("/f").ok());
  EXPECT_EQ((*env)->device().stats().reads, 0u);
  // Cold: the data must come from the disk.
  ASSERT_TRUE((*env)->ColdCache().ok());
  (*env)->ResetStats();
  ASSERT_TRUE((*env)->path().ReadFile("/f").ok());
  EXPECT_GT((*env)->device().stats().reads, 0u);
}

TEST(SimEnvTest, ResetStatsZeroesCounters) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, SmallConfig());
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE((*env)->path().WriteFile("/f", std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE((*env)->fs()->Sync().ok());
  (*env)->ResetStats();
  EXPECT_EQ((*env)->disk().stats().total_requests(), 0u);
  EXPECT_EQ((*env)->device().stats().writes, 0u);
  EXPECT_EQ((*env)->cache().stats().lookups, 0u);
  EXPECT_EQ((*env)->fs()->op_stats().creates, 0u);
}

TEST(SimEnvTest, ClockSharedAcrossComponents) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, SmallConfig());
  ASSERT_TRUE(env.ok());
  const SimTime before = (*env)->clock().now();
  ASSERT_TRUE((*env)->ColdCache().ok());
  ASSERT_TRUE((*env)->path().WriteFile("/x", std::vector<uint8_t>(4096)).ok());
  ASSERT_TRUE((*env)->fs()->Sync().ok());
  EXPECT_GT((*env)->clock().now(), before);  // disk work advanced time
}

TEST(SimEnvTest, UnknownDeviceIsRejected) {
  sim::SimConfig config = SmallConfig();
  for (const char* device : {"spinning", "flash"}) {
    config.device = device;
    EXPECT_TRUE(sim::SimEnv::Create(sim::FsKind::kCffs, config).ok())
        << device;
  }
  // A typo must not silently build the spinning disk.
  config.device = "flsh";
  EXPECT_EQ(sim::SimEnv::Create(sim::FsKind::kCffs, config).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(SimEnvTest, OpenMountsWhatThePlatterHolds) {
  for (sim::FsKind kind :
       {sim::FsKind::kFfs, sim::FsKind::kConventional, sim::FsKind::kEmbedOnly,
        sim::FsKind::kGroupOnly, sim::FsKind::kCffs}) {
    SCOPED_TRACE(sim::FsKindName(kind));
    sim::SimConfig config = SmallConfig();
    config.group_blocks = 8;
    config.extent_alloc = true;
    auto made = sim::SimEnv::Create(kind, config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const std::vector<uint8_t> data(3000, 0x6b);
    ASSERT_TRUE((*made)->path().WriteFile("/f", data).ok());
    ASSERT_TRUE((*made)->fs()->Sync().ok());

    // The caller's file-system fields are the defaults; the superblock's
    // win.
    sim::SimConfig machine;
    machine.disk_spec = config.disk_spec;
    auto opened = sim::SimEnv::Open(machine, [&](disk::DiskModel& platter) {
      return CopyPlatter((*made)->disk(), platter);
    });
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ((*opened)->kind(), kind);
    EXPECT_EQ((*opened)->config().blocks_per_cg, 1024u);
    EXPECT_TRUE((*opened)->config().extent_alloc);
    // FFS has no groups: the caller's value stays.
    EXPECT_EQ((*opened)->config().group_blocks,
              kind == sim::FsKind::kFfs ? machine.group_blocks : 8);
    auto back = (*opened)->path().ReadFile("/f");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, data);
  }
}

TEST(SimEnvTest, OpenRejectsAPlatterWithoutAFileSystem) {
  auto opened = sim::SimEnv::Open(SmallConfig(),
                                  [](disk::DiskModel&) { return OkStatus(); });
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorrupt);
}

TEST(SimEnvTest, OpenFailsWithItsFillsStatus) {
  auto opened = sim::SimEnv::Open(SmallConfig(), [](disk::DiskModel& platter) {
    const std::vector<uint8_t> sector(disk::kSectorSize, 1);
    return platter.PokeSector(platter.total_sectors(), sector);
  });
  EXPECT_EQ(opened.status().code(), ErrorCode::kOutOfRange)
      << opened.status().ToString();
}

// Formats `kind` on SmallConfig's drive, overwrites the `width`-byte
// little-endian superblock field at byte `offset` with `value`, opens the
// platter, and expects Corrupt naming `field`: a mount accepts only what
// Format writes.
void ExpectPatchedSuperblockCorrupt(sim::FsKind kind, size_t offset,
                                    size_t width, uint64_t value,
                                    const std::string& field) {
  auto made = sim::SimEnv::Create(kind, SmallConfig());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ASSERT_TRUE((*made)->fs()->Sync().ok());
  std::vector<uint8_t> sector(disk::kSectorSize);
  (*made)->disk().PeekSector(0, sector);
  for (size_t i = 0; i < width; ++i) {
    sector[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  ASSERT_TRUE((*made)->disk().PokeSector(0, sector).ok());
  auto opened = sim::SimEnv::Open(SmallConfig(), [&](disk::DiskModel& platter) {
    return CopyPlatter((*made)->disk(), platter);
  });
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorrupt)
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find(field), std::string::npos)
      << opened.status().ToString();
}

TEST(SuperblockTest, FfsBlocksPerCgBelowTheConfigRange) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kFfs, 4, 4, 32, "blocks_per_cg");
}

TEST(SuperblockTest, FfsZeroInodesPerCg) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kFfs, 8, 4, 0, "inodes_per_cg");
}

TEST(SuperblockTest, FfsZeroCylinderGroups) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kFfs, 12, 4, 0, "ncg");
}

TEST(SuperblockTest, FfsBlockCountOtherThanTheDevice) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kFfs, 16, 8, 1u << 20,
                                 "block_count");
}

TEST(SuperblockTest, CffsZeroBlocksPerCg) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kCffs, 4, 4, 0, "blocks_per_cg");
}

TEST(SuperblockTest, CffsZeroCylinderGroups) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kCffs, 8, 4, 0, "ncg");
}

TEST(SuperblockTest, CffsZeroGroupBlocks) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kCffs, 14, 2, 0, "group_blocks");
}

TEST(SuperblockTest, CffsSmallFileMaxBeyondTheDirectBlocks) {
  ExpectPatchedSuperblockCorrupt(sim::FsKind::kCffs, 16, 2, 13,
                                 "small_file_max_blocks");
}

TEST(SuperblockTest, FormatNamesTheFieldItRejects) {
  sim::SimConfig config = SmallConfig();
  config.blocks_per_cg = 32;
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    auto made = sim::SimEnv::Create(kind, config);
    EXPECT_EQ(made.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(made.status().message().find("blocks_per_cg"), std::string::npos)
        << made.status().ToString();
  }
}

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean().nanos(), 0);
  EXPECT_EQ(h.Percentile(0.99).nanos(), 0);
}

TEST(HistogramTest, MeanAndMaxExact) {
  LatencyHistogram h;
  h.Record(SimTime::Millis(1));
  h.Record(SimTime::Millis(3));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean().millis(), 2.0);
  EXPECT_DOUBLE_EQ(h.max().millis(), 3.0);
}

TEST(HistogramTest, PercentilesOrdered) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(SimTime::Micros(i * 10));
  const double p50 = h.Percentile(0.50).micros();
  const double p90 = h.Percentile(0.90).micros();
  const double p99 = h.Percentile(0.99).micros();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bucketed values are within a bucket width (2^(1/4) ~ 19%) of truth.
  EXPECT_NEAR(p50, 5000, 5000 * 0.2);
  EXPECT_NEAR(p99, 9900, 9900 * 0.2);
}

TEST(HistogramTest, MergeCombinesCounts) {
  LatencyHistogram a, b;
  a.Record(SimTime::Millis(1));
  b.Record(SimTime::Millis(10));
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.max().millis(), 10.0);
}

TEST(HistogramTest, SummaryMentionsPercentiles) {
  LatencyHistogram h;
  h.Record(SimTime::Millis(2));
  const std::string s = h.Summary();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

TEST(InterferenceTest, DisturberSlowsConventionalMore) {
  workload::InterferenceParams params;
  params.foreground_files = 200;
  params.foreground_dirs = 4;

  double rates[2][2];  // [fs][disturb? 0/1]
  const sim::FsKind kinds[] = {sim::FsKind::kConventional, sim::FsKind::kCffs};
  for (int k = 0; k < 2; ++k) {
    for (int d = 0; d < 2; ++d) {
      auto env = sim::SimEnv::Create(kinds[k], sim::SimConfig{});
      ASSERT_TRUE(env.ok());
      workload::InterferenceParams run = params;
      run.disturb_every = d == 0 ? 0 : 1;
      auto result = workload::RunInterference(env->get(), run);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      rates[k][d] = result->foreground_files_per_sec;
      EXPECT_EQ(result->foreground_read.count(), params.foreground_files);
    }
  }
  // C-FFS stays well ahead with and without interference.
  EXPECT_GT(rates[1][0], 3.0 * rates[0][0]);
  EXPECT_GT(rates[1][1], 1.8 * rates[0][1]);
  // The disturber hurts both, but c-ffs retains a large advantage.
  EXPECT_LT(rates[0][1], rates[0][0]);
  EXPECT_LT(rates[1][1], rates[1][0]);
}

}  // namespace
}  // namespace cffs
