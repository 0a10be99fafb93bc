// Tests for trace record/replay and the PostMark generator.
#include <gtest/gtest.h>

#include "src/workload/trace.h"

namespace cffs {
namespace {

using workload::Trace;
using workload::TraceOp;
using workload::TraceRecord;

sim::SimConfig SmallConfig() {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  return config;
}

TEST(TraceTest, ReplayAppliesOps) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, SmallConfig());
  ASSERT_TRUE(env.ok());
  Trace trace;
  trace.Add({TraceOp::kMkdir, "/t", "", 0, 0});
  trace.Add({TraceOp::kWrite, "/t/a", "", 0, 5000});
  trace.Add({TraceOp::kRead, "/t/a", "", 1000, 2000});
  trace.Add({TraceOp::kRename, "/t/a", "/t/b", 0, 0});
  trace.Add({TraceOp::kTruncate, "/t/b", "", 0, 100});
  trace.Add({TraceOp::kSync, "", "", 0, 0});
  auto stats = workload::ReplayTrace(env->get(), trace);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->ops_applied, 6u);
  EXPECT_EQ(stats->ops_failed, 0u);
  EXPECT_EQ(stats->bytes_written, 5000u);
  EXPECT_EQ(stats->bytes_read, 2000u);
  auto attr = (*env)->fs()->GetAttr(*(*env)->path().Resolve("/t/b"));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 100u);
}

TEST(TraceTest, FailedOpsCountedNotFatal) {
  auto env = sim::SimEnv::Create(sim::FsKind::kFfs, SmallConfig());
  ASSERT_TRUE(env.ok());
  Trace trace;
  trace.Add({TraceOp::kUnlink, "/missing", "", 0, 0});
  trace.Add({TraceOp::kWrite, "/ok", "", 0, 100});
  auto stats = workload::ReplayTrace(env->get(), trace);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ops_failed, 1u);
  EXPECT_EQ(stats->ops_applied, 1u);
}

TEST(PostmarkTest, GeneratorIsDeterministic) {
  workload::PostmarkParams params;
  params.initial_files = 50;
  params.transactions = 100;
  const Trace a = workload::GeneratePostmark(params);
  const Trace b = workload::GeneratePostmark(params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].a, b.records()[i].a) << i;
  }
}

TEST(PostmarkTest, ReplaysCleanlyOnAllConfigs) {
  workload::PostmarkParams params;
  params.initial_files = 60;
  params.transactions = 150;
  params.num_dirs = 4;
  const Trace trace = workload::GeneratePostmark(params);
  for (sim::FsKind kind :
       {sim::FsKind::kFfs, sim::FsKind::kConventional, sim::FsKind::kCffs}) {
    auto env = sim::SimEnv::Create(kind, SmallConfig());
    ASSERT_TRUE(env.ok());
    auto stats = workload::ReplayTrace(env->get(), trace);
    ASSERT_TRUE(stats.ok()) << sim::FsKindName(kind);
    // The generator only references live names: no failures expected.
    EXPECT_EQ(stats->ops_failed, 0u) << sim::FsKindName(kind);
    // Teardown deleted every file.
    for (uint32_t d = 0; d < params.num_dirs; ++d) {
      auto entries = (*env)->fs()->ReadDir(
          *(*env)->path().Resolve("/pm" + std::to_string(d)));
      ASSERT_TRUE(entries.ok());
      EXPECT_TRUE(entries->empty()) << sim::FsKindName(kind) << " pm" << d;
    }
  }
}

TEST(PostmarkTest, TransactionMixRoughlyBalanced) {
  workload::PostmarkParams params;
  params.initial_files = 100;
  params.transactions = 1000;
  const Trace trace = workload::GeneratePostmark(params);
  uint32_t reads = 0, unlinks = 0;
  for (const TraceRecord& r : trace.records()) {
    if (r.op == TraceOp::kRead) ++reads;
    if (r.op == TraceOp::kUnlink) ++unlinks;
  }
  EXPECT_GT(reads, 350u);
  EXPECT_LT(reads, 650u);
  EXPECT_GT(unlinks, 350u);  // transaction deletes + teardown
}

}  // namespace
}  // namespace cffs
