// Performance-shape invariants: reduced-scale versions of the paper's
// headline claims, run as tests so a regression in the mechanisms (group
// reads, write clustering, single-sync creates) fails CI visibly. Bounds
// are looser than the full benchmarks to stay robust at small scale.
#include <gtest/gtest.h>

#include "src/stats/collect.h"
#include "src/workload/smallfile.h"

namespace cffs {
namespace {

workload::SmallFileResult RunBench(sim::FsKind kind,
                              fs::MetadataPolicy policy =
                                  fs::MetadataPolicy::kSynchronous) {
  sim::SimConfig config;
  config.metadata = policy;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok());
  workload::SmallFileParams params;
  params.num_files = 1500;
  params.num_dirs = 15;
  auto result = workload::RunSmallFile(env->get(), params);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

class HeadlineShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    conv_ = new workload::SmallFileResult(RunBench(sim::FsKind::kConventional));
    cffs_ = new workload::SmallFileResult(RunBench(sim::FsKind::kCffs));
    embed_ = new workload::SmallFileResult(RunBench(sim::FsKind::kEmbedOnly));
  }
  static void TearDownTestSuite() {
    delete conv_;
    delete cffs_;
    delete embed_;
  }
  static workload::SmallFileResult* conv_;
  static workload::SmallFileResult* cffs_;
  static workload::SmallFileResult* embed_;
};

workload::SmallFileResult* HeadlineShapeTest::conv_ = nullptr;
workload::SmallFileResult* HeadlineShapeTest::cffs_ = nullptr;
workload::SmallFileResult* HeadlineShapeTest::embed_ = nullptr;

TEST_F(HeadlineShapeTest, ReadThroughputAtLeast4x) {
  // Paper: 5-7x; at reduced scale we insist on >= 4x.
  EXPECT_GE(cffs_->phase("read").files_per_sec,
            4.0 * conv_->phase("read").files_per_sec);
}

TEST_F(HeadlineShapeTest, OverwriteThroughputAtLeast3x) {
  EXPECT_GE(cffs_->phase("overwrite").files_per_sec,
            3.0 * conv_->phase("overwrite").files_per_sec);
}

TEST_F(HeadlineShapeTest, CreateThroughputAtLeast1_7x) {
  EXPECT_GE(cffs_->phase("create").files_per_sec,
            1.7 * conv_->phase("create").files_per_sec);
}

TEST_F(HeadlineShapeTest, DeleteAtLeast2xWithEmbeddedInodesAlone) {
  // Paper: "a 250% increase in file deletion throughput".
  EXPECT_GE(embed_->phase("delete").files_per_sec,
            2.0 * conv_->phase("delete").files_per_sec);
}

TEST_F(HeadlineShapeTest, OrderOfMagnitudeFewerReadRequests) {
  const auto& c = conv_->phase("read");
  const auto& x = cffs_->phase("read");
  EXPECT_GE(static_cast<double>(c.disk_reads),
            8.0 * static_cast<double>(x.disk_reads));
}

TEST_F(HeadlineShapeTest, RoughlyHalfTheSyncWritesPerCreate) {
  // ~2 per create conventional vs ~1 for C-FFS, plus directory-growth
  // writes on both sides.
  const double conv =
      static_cast<double>(conv_->phase("create").sync_metadata_writes);
  const double cffs =
      static_cast<double>(cffs_->phase("create").sync_metadata_writes);
  EXPECT_GT(conv, 1.6 * cffs);
  EXPECT_LT(conv, 2.4 * cffs);
}

TEST_F(HeadlineShapeTest, GroupReadsActuallyHappen) {
  EXPECT_GT(cffs_->phase("read").group_reads, 0u);
  EXPECT_EQ(conv_->phase("read").group_reads, 0u);
}

TEST(SoftUpdatesShapeTest, DelayedMetadataLiftsConventionalCreates) {
  // Figure 6's first-order effect: removing synchronous writes helps the
  // conventional system a lot on create...
  auto sync_run = RunBench(sim::FsKind::kConventional);
  auto delayed_run =
      RunBench(sim::FsKind::kConventional, fs::MetadataPolicy::kDelayed);
  EXPECT_GE(delayed_run.phase("create").files_per_sec,
            1.8 * sync_run.phase("create").files_per_sec);
  // ...but does nothing for cold reads.
  EXPECT_NEAR(delayed_run.phase("read").files_per_sec,
              sync_run.phase("read").files_per_sec,
              0.15 * sync_run.phase("read").files_per_sec);
}

TEST(SoftUpdatesShapeTest, GroupingStillWinsReadsUnderDelayedMetadata) {
  auto conv = RunBench(sim::FsKind::kConventional, fs::MetadataPolicy::kDelayed);
  auto cffs = RunBench(sim::FsKind::kCffs, fs::MetadataPolicy::kDelayed);
  EXPECT_GE(cffs.phase("read").files_per_sec,
            4.0 * conv.phase("read").files_per_sec);
}

// Every operation's span must decompose exactly: the sum of its phase
// times equals its end-to-end latency, for every tracked op type, on both
// file systems, under both metadata policies. This is the tentpole's
// headline invariant — checked here on real workload runs, not synthetic
// attributions.
class SpanPhaseSumTest
    : public ::testing::TestWithParam<std::tuple<sim::FsKind, bool>> {};

TEST_P(SpanPhaseSumTest, PhaseTimesSumToEndToEndLatency) {
  const auto [kind, delayed] = GetParam();
  sim::SimConfig config;
  if (delayed) {
    config.metadata = fs::MetadataPolicy::kDelayed;
    config.syncer = true;
    config.syncer_interval = SimTime::Millis(100);
    config.syncer_max_age = SimTime::Millis(100);
  }
  auto env = sim::SimEnv::Create(kind, config);
  ASSERT_TRUE(env.ok());
  workload::SmallFileParams params;
  params.num_files = 400;
  params.num_dirs = 8;
  auto result = workload::RunSmallFile(env->get(), params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const stats::MetricsSnapshot snap = stats::Snapshot(**env);
  const auto violations = snap.CheckInvariants();
  for (const std::string& v : violations) ADD_FAILURE() << v;

  const obs::PhaseBreakdown& spans = snap.spans;
  EXPECT_GT(spans.ops_finished, 0u);
  EXPECT_EQ(spans.invariant_violations, 0u);
  EXPECT_EQ(spans.max_residual_ns, 0);
  for (int i = 0; i < obs::kTrackedOps; ++i) {
    const obs::OpTypeBreakdown& b = spans.per_op[i];
    EXPECT_EQ(b.e2e_total_ns, b.totals.TotalNs())
        << obs::FsOpName(obs::TrackedOpAt(i));
  }
  // The workload resets stats between phases; the snapshot covers the last
  // phase (delete), whose span count must match the fs op counter.
  EXPECT_EQ(spans.ForOp(obs::FsOp::kUnlink)->count(),
            (*env)->fs()->op_stats().unlinks);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SpanPhaseSumTest,
    ::testing::Combine(::testing::Values(sim::FsKind::kFfs,
                                         sim::FsKind::kConventional,
                                         sim::FsKind::kCffs),
                       ::testing::Bool()),
    [](const auto& param_info) {
      std::string name;
      switch (std::get<0>(param_info.param)) {
        case sim::FsKind::kFfs: name = "Ffs"; break;
        case sim::FsKind::kConventional: name = "Conventional"; break;
        default: name = "Cffs"; break;
      }
      return name + (std::get<1>(param_info.param) ? "Delayed" : "Sync");
    });

}  // namespace
}  // namespace cffs
