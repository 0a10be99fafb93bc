// Tests for the observability layer: JSON round-trips, the trace ring
// buffer, Chrome trace export schema, and — the important part — the
// cross-layer counter invariants on real workload runs.
#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "src/stats/collect.h"
#include "src/obs/trace.h"
#include "src/workload/smallfile.h"

namespace cffs {
namespace {

// --- Json ---

TEST(JsonTest, BuildsAndDumps) {
  obs::Json j = obs::Json::Object();
  j.Set("name", "c-ffs");
  j.Set("count", 42);
  j.Set("ratio", 1.5);
  j.Set("ok", true);
  j.Set("nothing", obs::Json());
  obs::Json arr = obs::Json::Array();
  arr.Push(1).Push(2).Push(3);
  j.Set("list", std::move(arr));
  EXPECT_EQ(j.Dump(),
            "{\"name\":\"c-ffs\",\"count\":42,\"ratio\":1.5,\"ok\":true,"
            "\"nothing\":null,\"list\":[1,2,3]}");
}

TEST(JsonTest, SetReplacesExistingKey) {
  obs::Json j = obs::Json::Object();
  j.Set("k", 1);
  j.Set("k", 2);
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.Find("k")->as_int(), 2);
}

TEST(JsonTest, RoundTripsThroughParse) {
  obs::Json j = obs::Json::Object();
  j.Set("s", "quote \" backslash \\ newline \n");
  j.Set("neg", -123);
  j.Set("d", 0.25);
  obs::Json nested = obs::Json::Object();
  nested.Set("empty_list", obs::Json::Array());
  j.Set("nested", std::move(nested));

  auto parsed = obs::Json::Parse(j.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), j.Dump());
  EXPECT_EQ(parsed->Find("s")->as_string(), "quote \" backslash \\ newline \n");
  EXPECT_TRUE(parsed->Find("d")->is_double());
  EXPECT_TRUE(parsed->Find("neg")->is_int());
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(obs::Json::Parse("").ok());
  EXPECT_FALSE(obs::Json::Parse("{").ok());
  EXPECT_FALSE(obs::Json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(obs::Json::Parse("[1 2]").ok());
  EXPECT_FALSE(obs::Json::Parse("{\"a\":1} trailing").ok());
}

// --- TraceRecorder ---

obs::TraceEvent DiskEvent(int64_t ts_ns) {
  obs::TraceEvent e;
  e.kind = obs::EventKind::kDiskIo;
  e.ts_ns = ts_ns;
  e.dur_ns = 1000;
  e.a = 42;
  e.b = 8;
  return e;
}

TEST(TraceRecorderTest, RingDropsOldestWhenFull) {
  obs::TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) rec.Record(DiskEvent(i * 100));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (ts 0 and 100) were overwritten; order is chronological.
  EXPECT_EQ(events.front().ts_ns, 200);
  EXPECT_EQ(events.back().ts_ns, 500);
}

TEST(TraceRecorderTest, ClearEmptiesButKeepsCapacity) {
  obs::TraceRecorder rec(8);
  rec.Record(DiskEvent(1));
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.capacity(), 8u);
}

TEST(TraceRecorderTest, RecordJsonOfAnOlderFormatIsRejectedByVersion) {
  // cffs-trace-v1 numbered the event kinds differently (it still had
  // kGroupRead), and cffs-trace-v2 the fs ops (kOther came right after
  // kTruncate), so reading either as v3 would misfile kinds or ops.
  for (const char* old : {"cffs-trace-v1", "cffs-trace-v2"}) {
    const auto dump = obs::TraceRecorder::FromRecordJson(
        std::string(R"({"format":")") + old +
        R"(","dropped":0,"events":[]})");
    ASSERT_FALSE(dump.ok()) << old;
    EXPECT_EQ(dump.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(dump.status().ToString().find(old), std::string::npos)
        << dump.status().ToString();
  }

  obs::TraceRecorder rec(4);
  rec.Record(DiskEvent(1));
  const auto v3 = obs::TraceRecorder::FromRecordJson(rec.ToRecordJson());
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v3->size(), 1u);
}

TEST(TraceRecorderTest, ChromeJsonHasExpectedSchema) {
  obs::TraceRecorder rec(16);
  rec.Record(DiskEvent(1'000'000));
  obs::TraceEvent hit;
  hit.kind = obs::EventKind::kCacheHit;
  hit.ts_ns = 2'000'000;
  hit.a = 7;
  rec.Record(hit);
  obs::TraceEvent op;
  op.kind = obs::EventKind::kFsOp;
  op.op = obs::FsOp::kCreate;
  op.ts_ns = 3'000'000;
  op.dur_ns = 500'000;
  rec.Record(op);

  auto doc = obs::Json::Parse(rec.ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->Find("traceEvents"), nullptr);
  const obs::Json& events = *doc->Find("traceEvents");
  ASSERT_TRUE(events.is_array());
  // 4 thread-name metadata records (fs / cache / disk / io lanes) + our
  // 3 events.
  ASSERT_EQ(events.size(), 7u);

  size_t metadata = 0, complete = 0, instant = 0;
  for (const obs::Json& e : events.elements()) {
    ASSERT_NE(e.Find("ph"), nullptr);
    const std::string& ph = e.Find("ph")->as_string();
    ASSERT_NE(e.Find("pid"), nullptr);
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("ts"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.Find("dur"), nullptr);
    } else if (ph == "i") {
      ++instant;
    }
  }
  EXPECT_EQ(metadata, 4u);
  EXPECT_EQ(complete, 2u);  // the disk I/O and the fs op
  EXPECT_EQ(instant, 1u);   // the cache hit
  // The disk event carries the timing breakdown in args.
  bool found_disk = false;
  for (const obs::Json& e : events.elements()) {
    const obs::Json* name = e.Find("name");
    if (name != nullptr && name->as_string() == "disk-read") {
      found_disk = true;
      const obs::Json* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->Find("lba"), nullptr);
      EXPECT_NE(args->Find("seek_us"), nullptr);
      EXPECT_NE(args->Find("rotation_us"), nullptr);
      EXPECT_NE(args->Find("transfer_us"), nullptr);
    }
  }
  EXPECT_TRUE(found_disk);
  EXPECT_EQ(doc->Find("otherData")->Find("dropped_events")->as_int(), 0);
}

// --- MetricsSnapshot on live workloads ---

class ObsWorkloadTest : public ::testing::TestWithParam<sim::FsKind> {};

TEST_P(ObsWorkloadTest, InvariantsHoldAndSnapshotRoundTrips) {
  sim::SimConfig config;
  auto env_or = sim::SimEnv::Create(GetParam(), config);
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  sim::SimEnv* env = env_or->get();
  env->EnableTrace();

  workload::SmallFileParams params;
  params.num_files = 200;
  params.num_dirs = 8;
  auto result = workload::RunSmallFile(env, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const stats::MetricsSnapshot snap = stats::Snapshot(*env);
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty())
      << "invariants violated:\n  " << violations.front();

  // The books must show real work.
  EXPECT_GT(snap.fs_ops.creates, 0u);
  EXPECT_GT(snap.cache.lookups, 0u);
  EXPECT_GT(snap.disk.total_requests(), 0u);
  EXPECT_EQ(snap.spans.ForOp(obs::FsOp::kCreate)->count(),
            snap.fs_ops.creates);

  // Snapshot JSON parses and keeps the headline numbers.
  auto doc = obs::Json::Parse(snap.ToJsonString());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("fs")->as_string(), snap.fs_name);
  EXPECT_EQ(doc->Find("fs_ops")->Find("creates")->as_int(),
            static_cast<int64_t>(snap.fs_ops.creates));
  EXPECT_NEAR(doc->Find("disk")->Find("busy_s")->as_double(),
              snap.disk.busy_time.seconds(), 1e-9);

  // The trace saw the same disk commands the stats counted (plus the
  // formatting traffic from before ResetStats).
  uint64_t disk_events = 0;
  for (const auto& e : env->trace()->Events()) {
    if (e.kind == obs::EventKind::kDiskIo) ++disk_events;
  }
  EXPECT_GE(disk_events, snap.disk.total_requests());

  // Chrome export of a real run parses too. Each counter sample expands
  // into two counter-track objects; everything else maps 1:1.
  uint64_t counter_samples = 0;
  for (const auto& e : env->trace()->Events()) {
    if (e.kind == obs::EventKind::kCounterSample) ++counter_samples;
  }
  auto chrome = obs::Json::Parse(env->trace()->ToChromeJson());
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  EXPECT_EQ(chrome->Find("traceEvents")->size(),
            env->trace()->size() + counter_samples + 4);  // + thread metadata
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ObsWorkloadTest,
                         ::testing::Values(sim::FsKind::kFfs,
                                           sim::FsKind::kConventional,
                                           sim::FsKind::kCffs),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case sim::FsKind::kFfs: return "Ffs";
                             case sim::FsKind::kConventional:
                               return "Conventional";
                             default: return "Cffs";
                           }
                         });

TEST(MetricsSnapshotTest, CheckInvariantsCatchesCookedBooks) {
  stats::MetricsSnapshot snap;
  snap.cache.lookups = 10;
  snap.cache.hits = 3;
  snap.cache.misses = 3;  // 3 + 3 != 10
  const auto violations = snap.CheckInvariants();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("lookups"), std::string::npos);
}

TEST(MetricsSnapshotTest, ResetStatsClearsLatencies) {
  sim::SimConfig config;
  auto env_or = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env_or.ok());
  sim::SimEnv* env = env_or->get();
  workload::SmallFileParams params;
  params.num_files = 20;
  params.num_dirs = 2;
  ASSERT_TRUE(workload::RunSmallFile(env, params).ok());
  auto creates = [&] {
    return stats::Snapshot(*env).spans.ForOp(obs::FsOp::kCreate)->count();
  };
  ASSERT_GT(creates(), 0u);
  env->ResetStats();
  EXPECT_EQ(creates(), 0u);
  EXPECT_EQ(stats::Snapshot(*env).fs_ops.creates, 0u);
}

}  // namespace
}  // namespace cffs
