// Tests for the bench reports' seam from a finished machine to its report
// (bench/report.h): Check fails a report for a machine that breaks a
// MetricsSnapshot invariant and names it, AddMachine records the machine's
// spans and config string, and the smallfile runner adds tagged rows.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench/report.h"

namespace cffs {
namespace {

sim::SimConfig SmallConfig() {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  return config;
}

workload::SmallFileParams FewFiles() {
  workload::SmallFileParams params;
  params.num_files = 40;
  params.num_dirs = 2;
  return params;
}

// A machine that has run the small-file benchmark.
std::unique_ptr<sim::SimEnv> FinishedMachine() {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, SmallConfig());
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_TRUE(workload::RunSmallFile(env->get(), FewFiles()).ok());
  return std::move(*env);
}

TEST(BenchReportTest, CheckPassesACleanMachine) {
  std::unique_ptr<sim::SimEnv> env = FinishedMachine();
  bench::Report report("test");
  testing::internal::CaptureStderr();
  const stats::MetricsSnapshot snap = bench::Check(&report, "clean", env.get());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_FALSE(report.failed());
  EXPECT_GT(snap.fs_ops.creates, 0u);
}

TEST(BenchReportTest, CheckFailsTheReportAndNamesTheLabel) {
  std::unique_ptr<sim::SimEnv> env = FinishedMachine();
  ++env->cache().stats().hits;  // hits + misses != lookups
  bench::Report report("test");
  testing::internal::CaptureStderr();
  bench::Check(&report, "c-ffs/broken", env.get());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(report.failed());
  EXPECT_NE(err.find("[c-ffs/broken]"), std::string::npos) << err;
  EXPECT_NE(err.find("cache: hits"), std::string::npos) << err;
}

TEST(BenchReportTest, AddMachineRecordsSpansAndConfig) {
  std::unique_ptr<sim::SimEnv> env = FinishedMachine();
  bench::Report report("test");
  bench::AddMachine(&report, "m", env.get());
  EXPECT_FALSE(report.failed());
  const obs::Json* config = report.root().Find("sim_config")->Find("m");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->as_string(), sim::ConfigString(env->kind(), env->config()));
  const obs::Json* spans = report.root().Find("spans")->Find("m");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->Dump(), env->spans()->breakdown().ToJson().Dump());
}

TEST(BenchReportTest, AddMachineChecksToo) {
  std::unique_ptr<sim::SimEnv> env = FinishedMachine();
  ++env->cache().stats().hits;
  bench::Report report("test");
  testing::internal::CaptureStderr();
  bench::AddMachine(&report, "m", env.get());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("[m]"),
            std::string::npos);
  EXPECT_TRUE(report.failed());
}

TEST(BenchReportTest, RunSmallFileAddsTaggedRowsAndRecordsTheMachine) {
  bench::Report report("test");
  const bench::SmallFileRun run = bench::RunSmallFile(
      &report, "run", sim::FsKind::kFfs, SmallConfig(), FewFiles(),
      obs::Json::Object().Set("config", "ffs"));
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(run.result.phases.size(), 4u);
  const obs::Json& rows = *report.root().Find("rows");
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows.at(i).Find("phase")->as_string(),
              run.result.phases[i].phase);
    EXPECT_EQ(rows.at(i).Find("config")->as_string(), "ffs");
  }
  EXPECT_NE(report.root().Find("spans")->Find("run"), nullptr);
  EXPECT_EQ(report.root().Find("sim_config")->Find("run")->as_string(),
            sim::ConfigString(sim::FsKind::kFfs, SmallConfig()));
  EXPECT_EQ(run.snap.fs_ops.creates, FewFiles().num_files);
}

TEST(BenchReportTest, RunSmallFileWithoutTagsAddsNoRows) {
  bench::Report report("test");
  bench::RunSmallFile(&report, "run", sim::FsKind::kCffs, SmallConfig(),
                      FewFiles(), obs::Json());
  EXPECT_EQ(report.root().Find("rows")->size(), 0u);
  EXPECT_NE(report.root().Find("spans")->Find("run"), nullptr);
}

}  // namespace
}  // namespace cffs
