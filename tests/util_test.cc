// Unit tests for src/util: Status/Result, RNG, byte codecs, SimTime,
// latency histograms.
#include <gtest/gtest.h>

#include <cmath>

#include "src/util/bytes.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace cffs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NoSpace("cylinder group full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(s.message(), "cylinder group full");
  EXPECT_EQ(s.ToString(), "no space: cylinder group full");
}

TEST(StatusTest, AllErrorCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kBadHandle); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Doubler(Result<int> in) {
  ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(IoError("x")).status().code(), ErrorCode::kIoError);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  int counts[8] = {0};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.Below(8)];
  for (int c : counts) {
    EXPECT_GT(c, n / 8 - n / 80);
    EXPECT_LT(c, n / 8 + n / 80);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, NamesRespectLengthBounds) {
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    std::string name = rng.NextName(3, 8);
    EXPECT_GE(name.size(), 3u);
    EXPECT_LE(name.size(), 8u);
    for (char c : name) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(BytesTest, RoundTripAllWidths) {
  std::vector<uint8_t> buf(32);
  PutU16(buf, 0, 0xbeef);
  PutU32(buf, 2, 0xdeadbeef);
  PutU64(buf, 6, 0x0123456789abcdefULL);
  EXPECT_EQ(GetU16(buf, 0), 0xbeef);
  EXPECT_EQ(GetU32(buf, 2), 0xdeadbeefu);
  EXPECT_EQ(GetU64(buf, 6), 0x0123456789abcdefULL);
}

TEST(BytesTest, LittleEndianLayout) {
  std::vector<uint8_t> buf(4);
  PutU32(buf, 0, 0x11223344);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[3], 0x11);
}

TEST(BytesTest, StringRoundTrip) {
  std::vector<uint8_t> buf(16);
  PutBytes(buf, 3, "hello");
  EXPECT_EQ(GetBytes(buf, 3, 5), "hello");
}

TEST(BytesTest, ChecksumDetectsChange) {
  std::vector<uint8_t> buf(512, 0xaa);
  const uint64_t before = Checksum64(buf);
  buf[100] ^= 1;
  EXPECT_NE(before, Checksum64(buf));
}

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(SimTime::Millis(1.5).nanos(), 1500000);
  EXPECT_DOUBLE_EQ(SimTime::Seconds(2.0).millis(), 2000.0);
  EXPECT_DOUBLE_EQ(SimTime::Micros(250).millis(), 0.25);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime a = SimTime::Millis(10), b = SimTime::Millis(4);
  EXPECT_EQ((a - b).millis(), 6.0);
  EXPECT_EQ((a + b).millis(), 14.0);
  EXPECT_LT(b, a);
}

TEST(SimClockTest, NeverMovesBackwards) {
  SimClock clock;
  clock.AdvanceTo(SimTime::Millis(5));
  clock.AdvanceTo(SimTime::Millis(3));
  EXPECT_DOUBLE_EQ(clock.now().millis(), 5.0);
  clock.AdvanceBy(SimTime::Millis(2));
  EXPECT_DOUBLE_EQ(clock.now().millis(), 7.0);
}

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean().nanos(), 0);
  EXPECT_EQ(h.Percentile(0.5).nanos(), 0);
}

TEST(LatencyHistogramTest, PercentileNeverExceedsMax) {
  // 13,712,262 ns falls in the bucket whose upper edge is 13,777,246 ns;
  // the percentile must stop at the largest sample, not at that edge.
  LatencyHistogram h;
  h.Record(SimTime::Nanos(13'712'262));
  EXPECT_EQ(h.p50().nanos(), h.max().nanos());
  EXPECT_EQ(h.p999().nanos(), 13'712'262);
  // With more samples the clamp only touches the top bucket.
  for (int i = 0; i < 99; ++i) h.Record(SimTime::Micros(10));
  EXPECT_LE(h.p50().nanos(), 12'000);
  EXPECT_EQ(h.Percentile(1.0).nanos(), 13'712'262);
}

TEST(LatencyHistogramTest, PercentileBracketsSamples) {
  LatencyHistogram h;
  // 90 fast (10 us) and 10 slow (10 ms) samples: p50 must sit near the fast
  // mode, p99 near the slow one. Percentile returns a bucket upper edge, so
  // allow one geometric step (2^(1/4)) of slack.
  for (int i = 0; i < 90; ++i) h.Record(SimTime::Micros(10));
  for (int i = 0; i < 10; ++i) h.Record(SimTime::Millis(10));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GE(h.Percentile(0.5).nanos(), 10'000);
  EXPECT_LE(h.Percentile(0.5).nanos(), 12'000);
  EXPECT_GE(h.Percentile(0.99).nanos(), 10'000'000);
  EXPECT_LE(h.Percentile(0.99).nanos(), 12'000'000);
  EXPECT_EQ(h.max().nanos(), 10'000'000);
  // p0 and p100 are clamped, not out-of-range.
  EXPECT_GT(h.Percentile(0.0).nanos(), 0);
  EXPECT_GE(h.Percentile(1.0).nanos(), 10'000'000);
}

TEST(LatencyHistogramTest, MergeAddsCountsAndKeepsMax) {
  LatencyHistogram a, b;
  for (int i = 0; i < 50; ++i) a.Record(SimTime::Micros(100));
  for (int i = 0; i < 50; ++i) b.Record(SimTime::Millis(50));
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.max().nanos(), 50'000'000);
  // Mean of the merged population: (50*0.1ms + 50*50ms) / 100 = 25.05 ms.
  EXPECT_NEAR(a.mean().millis(), 25.05, 0.01);
  // The merged p90 falls in the slow mode contributed by b.
  EXPECT_GE(a.Percentile(0.9).nanos(), 50'000'000);
}

TEST(LatencyHistogramTest, NamedAccessorsMatchPercentile) {
  LatencyHistogram h;
  for (int i = 0; i < 200; ++i) h.Record(SimTime::Micros(10 + i));
  EXPECT_EQ(h.p50().nanos(), h.Percentile(0.50).nanos());
  EXPECT_EQ(h.p99().nanos(), h.Percentile(0.99).nanos());
  EXPECT_EQ(h.p999().nanos(), h.Percentile(0.999).nanos());
}

TEST(LatencyHistogramTest, P999SeparatesTheExtremeTail) {
  // A 2-in-1000 tail: 3000 fast samples, 6 very slow ones. p99 must stay
  // in the fast mode while p999 lands in the tail — the whole reason the
  // span phase breakdown quotes p999 alongside p99.
  LatencyHistogram h;
  for (int i = 0; i < 3000; ++i) h.Record(SimTime::Micros(20));
  for (int i = 0; i < 6; ++i) h.Record(SimTime::Millis(80));
  EXPECT_LE(h.p99().nanos(), 24'000);           // fast mode, one bucket edge up
  // Tail mode; the bucket's upper edge is clamped to the recorded 80 ms.
  EXPECT_EQ(h.p999().nanos(), 80'000'000);
}

TEST(LatencyHistogramTest, MergePreservesTailPercentiles) {
  // A tail that only exists in one shard must survive the merge: shard a
  // holds the fast mode, shard b the rare slow mode.
  LatencyHistogram a, b;
  for (int i = 0; i < 998; ++i) a.Record(SimTime::Micros(50));
  b.Record(SimTime::Seconds(1));
  b.Record(SimTime::Seconds(1));
  a.Merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_LE(a.p99().nanos(), 60'000);
  EXPECT_GE(a.p999().nanos(), 1'000'000'000);
  // Merging an empty histogram is a no-op.
  const int64_t before = a.p999().nanos();
  a.Merge(LatencyHistogram{});
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.p999().nanos(), before);
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(SimTime::Millis(3));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max().nanos(), 0);
  EXPECT_EQ(h.p999().nanos(), 0);
}

TEST(LatencyHistogramTest, OverflowBucketCatchesHugeSamples) {
  LatencyHistogram h;
  // The geometric buckets top out around 3000 s; 10000 s must overflow.
  h.Record(SimTime::Seconds(10000));
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max().nanos(), 10000ll * 1'000'000'000);
  // Percentile of an overflow-only population reports the true max, not a
  // bucket edge.
  EXPECT_EQ(h.Percentile(0.5).nanos(), h.max().nanos());
}

}  // namespace
}  // namespace cffs
