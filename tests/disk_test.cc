// Unit tests for the disk simulator: geometry, seek curve, mechanical
// model, on-board cache, sector store, scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "src/disk/disk_model.h"
#include "src/disk/image.h"
#include "src/disk/scheduler.h"
#include "src/util/rng.h"

namespace cffs::disk {
namespace {

TEST(GeometryTest, TotalsMatchZones) {
  Geometry g(4, {{100, 60}, {50, 40}});
  EXPECT_EQ(g.total_cylinders(), 150u);
  EXPECT_EQ(g.total_sectors(), 100ull * 4 * 60 + 50ull * 4 * 40);
}

TEST(GeometryTest, LocateFirstAndLastSector) {
  Geometry g(4, {{100, 60}, {50, 40}});
  Location first = g.Locate(0);
  EXPECT_EQ(first.cylinder, 0u);
  EXPECT_EQ(first.head, 0u);
  EXPECT_EQ(first.sector, 0u);
  EXPECT_EQ(first.sectors_per_track, 60u);

  Location last = g.Locate(g.total_sectors() - 1);
  EXPECT_EQ(last.cylinder, 149u);
  EXPECT_EQ(last.head, 3u);
  EXPECT_EQ(last.sector, 39u);
  EXPECT_EQ(last.sectors_per_track, 40u);
}

TEST(GeometryTest, LbaMappingIsBijective) {
  Geometry g(3, {{20, 30}, {10, 17}});
  // Walk every LBA and reconstruct it from the location.
  uint64_t lba = 0;
  for (uint32_t cyl = 0; cyl < g.total_cylinders(); ++cyl) {
    const uint32_t spt = g.SectorsPerTrackAt(cyl);
    EXPECT_EQ(g.CylinderStartLba(cyl), lba);
    for (uint32_t head = 0; head < g.heads(); ++head) {
      for (uint32_t sector = 0; sector < spt; ++sector, ++lba) {
        Location loc = g.Locate(lba);
        EXPECT_EQ(loc.cylinder, cyl);
        EXPECT_EQ(loc.head, head);
        EXPECT_EQ(loc.sector, sector);
      }
    }
  }
  EXPECT_EQ(lba, g.total_sectors());
}

TEST(SeekCurveTest, ZeroDistanceIsFree) {
  SeekCurve c(SimTime::Millis(1.0), SimTime::Millis(8.0), SimTime::Millis(18.0),
              2000);
  EXPECT_EQ(c.SeekTime(0).nanos(), 0);
}

TEST(SeekCurveTest, HitsCalibrationPoints) {
  SeekCurve c(SimTime::Millis(1.0), SimTime::Millis(8.0), SimTime::Millis(18.0),
              2000);
  EXPECT_NEAR(c.SeekTime(1).millis(), 1.0, 1e-6);
  EXPECT_NEAR(c.SeekTime(2000).millis(), 18.0, 1e-3);
  // Average point: distance max/3.
  EXPECT_NEAR(c.SeekTime(2000 / 3).millis(), 8.0, 0.15);
}

TEST(SeekCurveTest, MonotoneNonDecreasing) {
  SeekCurve c(SimTime::Millis(0.6), SimTime::Millis(8.0), SimTime::Millis(19.0),
              3000);
  SimTime prev = SimTime::Zero();
  for (uint32_t d = 1; d <= 3000; d += 7) {
    SimTime t = c.SeekTime(d);
    EXPECT_GE(t, prev) << "at distance " << d;
    prev = t;
  }
}

TEST(SeekCurveTest, ShortSeeksAreExpensivePerCylinder) {
  // The paper: "Seeking a single cylinder generally costs a full
  // millisecond, and this cost rises quickly for slightly longer seek
  // distances" — i.e. the curve is concave: 10x the distance must cost far
  // less than 10x the time.
  SeekCurve c(SimTime::Millis(1.0), SimTime::Millis(8.7),
              SimTime::Millis(16.5), 2600);
  EXPECT_LT(c.SeekTime(10).millis(), 5 * c.SeekTime(1).millis());
}

TEST(SeekCurveTest, MeanMatchesSpecAverage) {
  for (const DiskSpec& spec : Table1Disks()) {
    const Geometry geo = spec.MakeGeometry();
    SeekCurve c(spec.seek_single, spec.seek_avg, spec.seek_max,
                geo.total_cylinders() - 1);
    EXPECT_NEAR(c.MeanOverUniformPairs().millis(), spec.seek_avg.millis(),
                spec.seek_avg.millis() * 0.10)
        << spec.name;
  }
}

class DiskModelTest : public ::testing::Test {
 protected:
  DiskModelTest() : model_(TestDisk(512, 4, 64), &clock_) {}
  SimClock clock_;
  DiskModel model_;
};

TEST_F(DiskModelTest, ReadWriteRoundTrip) {
  std::vector<uint8_t> out(8 * kSectorSize, 0);
  std::vector<uint8_t> in(8 * kSectorSize);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(model_.Write(100, 8, in).ok());
  ASSERT_TRUE(model_.Read(100, 8, out).ok());
  EXPECT_EQ(in, out);
}

TEST_F(DiskModelTest, UnwrittenSectorsReadZero) {
  std::vector<uint8_t> out(kSectorSize, 0xff);
  ASSERT_TRUE(model_.Read(5000, 1, out).ok());
  for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST_F(DiskModelTest, AccessAdvancesSimulatedTime) {
  std::vector<uint8_t> buf(kSectorSize);
  const SimTime t0 = clock_.now();
  ASSERT_TRUE(model_.Read(1234, 1, buf).ok());
  EXPECT_GT(clock_.now(), t0);
  // One small access: bounded by overhead + max seek + rotation + transfer.
  EXPECT_LT((clock_.now() - t0).millis(), 40.0);
}

TEST_F(DiskModelTest, OutOfRangeRejected) {
  std::vector<uint8_t> buf(kSectorSize);
  EXPECT_EQ(model_.Read(model_.total_sectors(), 1, buf).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(model_.Write(model_.total_sectors() - 1, 2, buf).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(DiskModelTest, ShortBufferRejected) {
  std::vector<uint8_t> buf(kSectorSize - 1);
  EXPECT_EQ(model_.Read(0, 1, buf).code(), ErrorCode::kInvalidArgument);
}

TEST_F(DiskModelTest, BigReadsBeatSmallReadsOnBandwidth) {
  // The core Figure 2 phenomenon: one 64 KB access moves data at far higher
  // effective bandwidth than sixteen 4 KB accesses at random locations.
  std::vector<uint8_t> big(128 * kSectorSize);
  Rng rng(3);
  SimTime t0 = clock_.now();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        model_.Read(rng.Below(model_.total_sectors() - 8), 8, big).ok());
  }
  const SimTime small_elapsed = clock_.now() - t0;

  t0 = clock_.now();
  ASSERT_TRUE(model_.Read(40000, 128, big).ok());
  const SimTime big_elapsed = clock_.now() - t0;
  EXPECT_GT(small_elapsed.seconds(), 3 * big_elapsed.seconds());
}

TEST_F(DiskModelTest, ImmediateSequentialReadLosesRotation) {
  // Closed-loop single-block sequential reads: the second request arrives
  // just after its sector passed under the head, costing ~a full rotation.
  std::vector<uint8_t> buf(8 * kSectorSize);
  ASSERT_TRUE(model_.Read(10000, 8, buf).ok());
  clock_.AdvanceBy(SimTime::Micros(200));  // host turnaround
  const SimTime t0 = clock_.now();
  ASSERT_TRUE(model_.Read(10008, 8, buf).ok());
  const double ms = (clock_.now() - t0).millis();
  const double rotation = model_.spec().RotationPeriod().millis();
  EXPECT_GT(ms, rotation * 0.5);
}

TEST_F(DiskModelTest, PrefetchServesDelayedSequentialRead) {
  // If the host waits long enough, the drive's read-ahead has buffered the
  // next blocks and the sequential read is served at bus speed.
  std::vector<uint8_t> buf(8 * kSectorSize);
  ASSERT_TRUE(model_.Read(10000, 8, buf).ok());
  clock_.AdvanceBy(SimTime::Millis(50));  // plenty of prefetch time
  const uint64_t hits_before = model_.stats().cache_hit_requests;
  ASSERT_TRUE(model_.Read(10008, 8, buf).ok());
  EXPECT_EQ(model_.stats().cache_hit_requests, hits_before + 1);
}

TEST_F(DiskModelTest, WriteInvalidatesOnboardCache) {
  std::vector<uint8_t> buf(8 * kSectorSize);
  ASSERT_TRUE(model_.Read(10000, 8, buf).ok());
  clock_.AdvanceBy(SimTime::Millis(50));
  ASSERT_TRUE(model_.Write(10004, 8, buf).ok());
  const uint64_t hits_before = model_.stats().cache_hit_requests;
  ASSERT_TRUE(model_.Read(10000, 8, buf).ok());
  EXPECT_EQ(model_.stats().cache_hit_requests, hits_before);
}

TEST_F(DiskModelTest, InjectedErrorSurfacesAndClears) {
  std::vector<uint8_t> buf(kSectorSize);
  model_.InjectReadError(777);
  EXPECT_EQ(model_.Read(777, 1, buf).code(), ErrorCode::kIoError);
  model_.ClearReadError(777);
  EXPECT_TRUE(model_.Read(777, 1, buf).ok());
}

TEST_F(DiskModelTest, StatsAccumulate) {
  std::vector<uint8_t> buf(kSectorSize);
  ASSERT_TRUE(model_.Read(0, 1, buf).ok());
  ASSERT_TRUE(model_.Write(9, 1, buf).ok());
  EXPECT_EQ(model_.stats().read_requests, 1u);
  EXPECT_EQ(model_.stats().write_requests, 1u);
  EXPECT_EQ(model_.stats().sectors_read, 1u);
  EXPECT_EQ(model_.stats().sectors_written, 1u);
  EXPECT_GT(model_.stats().busy_time.nanos(), 0);
}

TEST_F(DiskModelTest, PeekPokeBypassTiming) {
  std::vector<uint8_t> in(kSectorSize, 0x42);
  const SimTime t0 = clock_.now();
  ASSERT_TRUE(model_.PokeSector(55, in).ok());
  std::vector<uint8_t> out(kSectorSize);
  model_.PeekSector(55, out);
  EXPECT_EQ(clock_.now(), t0);
  EXPECT_EQ(in, out);
}

// The sector store is sparse, in chunks of DiskModel::kImageChunkSectors:
// runs that start in a written chunk and end in one never written must
// copy across the boundary and read the unwritten part as zeros.
TEST_F(DiskModelTest, RunsCrossChunkBoundariesIntoUnwrittenChunks) {
  constexpr uint64_t kChunk = DiskModel::kImageChunkSectors;
  auto pattern = [](size_t sectors, uint8_t seed) {
    std::vector<uint8_t> v(sectors * kSectorSize);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  };
  auto zeros = [](std::span<const uint8_t> s) {
    return std::all_of(s.begin(), s.end(), [](uint8_t b) { return b == 0; });
  };

  // Peek/Poke: four sectors at the end of chunk 2, then a 12-sector peek
  // that runs eight sectors into chunk 3.
  const std::vector<uint8_t> tail = pattern(4, 1);
  ASSERT_TRUE(model_.PokeSector(3 * kChunk - 4, tail).ok());
  std::vector<uint8_t> out(12 * kSectorSize, 0xff);
  model_.PeekSector(3 * kChunk - 4, out);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), out.begin()));
  EXPECT_TRUE(zeros(std::span(out).subspan(tail.size())));

  // A poke that itself spans the boundary lands on both sides.
  const std::vector<uint8_t> across = pattern(6, 2);
  ASSERT_TRUE(model_.PokeSector(5 * kChunk - 3, across).ok());
  std::vector<uint8_t> one(kSectorSize);
  for (uint64_t s = 0; s < 6; ++s) {
    model_.PeekSector(5 * kChunk - 3 + s, one);
    EXPECT_TRUE(std::equal(one.begin(), one.end(),
                           across.begin() + s * kSectorSize))
        << "sector " << s;
  }

  // Read/Write: a write inside chunk 8, then a timed read into chunk 9.
  const std::vector<uint8_t> written = pattern(4, 3);
  ASSERT_TRUE(model_.Write(9 * kChunk - 4, 4, written).ok());
  std::vector<uint8_t> buf(8 * kSectorSize, 0xff);
  ASSERT_TRUE(model_.Read(9 * kChunk - 4, 8, buf).ok());
  EXPECT_TRUE(std::equal(written.begin(), written.end(), buf.begin()));
  EXPECT_TRUE(zeros(std::span(buf).subspan(written.size())));

  // A timed write across the boundary reads back whole, through both the
  // timed and the time-free path.
  const std::vector<uint8_t> run = pattern(10, 4);
  ASSERT_TRUE(model_.Write(11 * kChunk - 5, 10, run).ok());
  std::vector<uint8_t> back(run.size());
  ASSERT_TRUE(model_.Read(11 * kChunk - 5, 10, back).ok());
  EXPECT_EQ(back, run);
  std::fill(back.begin(), back.end(), 0);
  model_.PeekSector(11 * kChunk - 5, back);
  EXPECT_EQ(back, run);
}

// 13 * 3 * 37 = 1443 sectors: five whole chunks and 163 sectors of a
// sixth, whose last 4 KB block is cut short too.
DiskSpec RaggedDisk() { return TestDisk(13, 3, 37); }

constexpr uint64_t kChunkSectors = DiskModel::kImageChunkSectors;
constexpr size_t kChunkBytes = kChunkSectors * kSectorSize;

uint64_t ChunkCount(const DiskModel& disk) {
  return (disk.total_sectors() + kChunkSectors - 1) / kChunkSectors;
}

// Every chunk `disk` yields, in the order it yields them.
std::vector<std::pair<uint64_t, std::vector<uint8_t>>> Chunks(
    const DiskModel& disk) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> out;
  disk.ForEachChunk([&](uint64_t index, std::span<const uint8_t> data) {
    out.emplace_back(index, std::vector<uint8_t>(data.begin(), data.end()));
  });
  return out;
}

TEST(SectorStoreTest, PokePastTheEndIsOutOfRange) {
  SimClock clock;
  DiskModel disk(RaggedDisk(), &clock);
  const uint64_t end = disk.total_sectors();
  const std::vector<uint8_t> two(2 * kSectorSize, 0x11);
  const auto one = std::span(two).first(kSectorSize);
  EXPECT_EQ(disk.PokeSector(end, one).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.PokeSector(end - 1, two).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.PokeSector(UINT64_MAX, two).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.PokeSector(0, std::span(two).first(100)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(Chunks(disk).empty());  // a refused poke writes nothing
  ASSERT_TRUE(disk.PokeSector(end - 2, two).ok());
  EXPECT_EQ(Chunks(disk).size(), 1u);
}

TEST(SectorStoreTest, CorruptPastTheEndIsOutOfRange) {
  SimClock clock;
  DiskModel disk(RaggedDisk(), &clock);
  const uint64_t end = disk.total_sectors();
  EXPECT_EQ(disk.CorruptSector(end).code(), ErrorCode::kOutOfRange);
  EXPECT_TRUE(Chunks(disk).empty());
  ASSERT_TRUE(disk.CorruptSector(end - 1).ok());
  std::vector<uint8_t> sector(kSectorSize);
  disk.PeekSector(end - 1, sector);
  EXPECT_EQ(sector[0], 0xa5);
}

TEST(SectorStoreTest, RestorePastTheLastChunkIsOutOfRange) {
  SimClock clock;
  DiskModel disk(RaggedDisk(), &clock);
  const std::vector<uint8_t> chunk(kChunkBytes, 0x22);
  EXPECT_EQ(disk.RestoreChunk(ChunkCount(disk), chunk).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.RestoreChunk(0, std::span(chunk).first(kSectorSize)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(Chunks(disk).empty());
  // The last chunk is whole in an image, past the drive's end included.
  ASSERT_TRUE(disk.RestoreChunk(ChunkCount(disk) - 1, chunk).ok());
  const auto chunks = Chunks(disk);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].second, chunk);
}

TEST(SectorStoreTest, PeekPastTheEndReadsZeros) {
  SimClock clock;
  DiskModel disk(RaggedDisk(), &clock);
  const uint64_t end = disk.total_sectors();
  ASSERT_TRUE(
      disk.PokeSector(end - 3, std::vector<uint8_t>(3 * kSectorSize, 0x33))
          .ok());
  std::vector<uint8_t> out(8 * kSectorSize, 0xff);
  disk.PeekSector(end - 3, out);  // three stored sectors, five past the end
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < 3 * kSectorSize ? 0x33 : 0) << "byte " << i;
  }
  std::fill(out.begin(), out.end(), 0xff);
  disk.PeekSector(end + 100 * kChunkSectors, out);  // past every chunk
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](uint8_t b) { return b == 0; }));
}

// The store against one flat byte array covering every chunk of the drive
// (the last chunk runs past the drive's last sector). Pokes cross block
// and chunk boundaries, whole-block pokes grow and shrink a block's stored
// prefix, and after every step ForEachChunk must yield exactly the chunks
// written so far, in ascending order, with the model's bytes.
TEST(SectorStoreTest, MatchesAFlatByteArray) {
  SimClock clock;
  DiskModel disk(RaggedDisk(), &clock);
  const uint64_t total = disk.total_sectors();
  const uint64_t nchunks = ChunkCount(disk);
  std::vector<uint8_t> model(nchunks * kChunkBytes, 0);
  std::set<uint64_t> written;
  Rng rng(24);

  // All zeros, a non-zero prefix of random length, or a single non-zero
  // byte anywhere (the zero sectors before it stay stored).
  auto fill = [&](std::span<uint8_t> bytes) {
    std::fill(bytes.begin(), bytes.end(), 0);
    switch (rng.Below(3)) {
      case 0:
        break;
      case 1:
        for (size_t i = 0, n = rng.Below(bytes.size() + 1); i < n; ++i) {
          bytes[i] = static_cast<uint8_t>(rng.Next() | 1);
        }
        break;
      default:
        bytes[rng.Below(bytes.size())] = 0x80;
        break;
    }
  };
  auto note_written = [&](uint64_t lba, uint64_t sectors) {
    for (uint64_t c = lba / kChunkSectors;
         c <= (lba + sectors - 1) / kChunkSectors; ++c) {
      written.insert(c);
    }
  };

  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = rng.Below(10);
    if (op < 5) {
      // Poke: whole blocks half of the time, any sectors otherwise.
      uint64_t lba = 0;
      uint64_t n = 0;
      if (rng.Chance(0.5)) {
        n = 8 * (1 + rng.Below(6));
        lba = 8 * rng.Below((total - n) / 8 + 1);
      } else {
        n = 1 + rng.Below(24);
        lba = rng.Below(total - n + 1);
      }
      std::vector<uint8_t> in(n * kSectorSize);
      fill(in);
      ASSERT_TRUE(disk.PokeSector(lba, in).ok());
      std::copy(in.begin(), in.end(), model.begin() + lba * kSectorSize);
      note_written(lba, n);
    } else if (op < 7) {
      // Peek, up to a few sectors past the drive's end.
      const uint64_t n = 1 + rng.Below(24);
      const uint64_t lba = rng.Below(total + 8);
      std::vector<uint8_t> out(n * kSectorSize, 0xee);
      disk.PeekSector(lba, out);
      for (size_t i = 0; i < out.size(); ++i) {
        const uint64_t at = lba * kSectorSize + i;
        ASSERT_EQ(out[i], at < model.size() ? model[at] : 0) << "byte " << at;
      }
    } else if (op < 8) {
      // Corrupt a sector, written before or not.
      const uint64_t lba = rng.Below(total);
      ASSERT_TRUE(disk.CorruptSector(lba).ok());
      for (uint32_t i = 0; i < kSectorSize; i += 16) {
        model[lba * kSectorSize + i] ^= 0xa5;
      }
      note_written(lba, 1);
    } else if (op < 9) {
      const uint64_t c = rng.Below(nchunks);
      std::vector<uint8_t> data(kChunkBytes);
      for (size_t b = 0; b < kChunkBytes; b += 8 * kSectorSize) {
        fill(std::span(data).subspan(b, 8 * kSectorSize));
      }
      ASSERT_TRUE(disk.RestoreChunk(c, data).ok());
      std::copy(data.begin(), data.end(), model.begin() + c * kChunkBytes);
      written.insert(c);
    } else {
      // Move the contents away: this disk is blank and still takes
      // writes. Moving them back drops those writes.
      DiskModel other(RaggedDisk(), &clock);
      other.TakeContents(disk);
      EXPECT_TRUE(Chunks(disk).empty());
      const std::vector<uint8_t> marker(kSectorSize, 0x5c);
      ASSERT_TRUE(disk.PokeSector(total - 1, marker).ok());
      std::vector<uint8_t> back(kSectorSize);
      disk.PeekSector(total - 1, back);
      EXPECT_EQ(back, marker);
      disk.TakeContents(other);
      EXPECT_TRUE(Chunks(other).empty());
    }

    const auto chunks = Chunks(disk);
    std::vector<uint64_t> indices;
    for (const auto& [index, data] : chunks) {
      indices.push_back(index);
      ASSERT_TRUE(std::equal(data.begin(), data.end(),
                             model.begin() + index * kChunkBytes))
          << "chunk " << index;
    }
    ASSERT_EQ(indices, std::vector<uint64_t>(written.begin(), written.end()));
  }
}

TEST(SectorStoreTest, ImageRoundTripKeepsEveryChunk) {
  SimClock clock;
  DiskModel disk(RaggedDisk(), &clock);
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    std::vector<uint8_t> in((1 + rng.Below(16)) * kSectorSize, 0);
    for (size_t b = 0, n = rng.Below(in.size()); b < n; ++b) {
      in[b] = static_cast<uint8_t>(rng.Next());
    }
    const uint64_t lba = rng.Below(disk.total_sectors() - in.size() / kSectorSize + 1);
    ASSERT_TRUE(disk.PokeSector(lba, in).ok());
  }
  const std::string path =
      std::string(::testing::TempDir()) + "/cffs_store_roundtrip.img";
  ASSERT_TRUE(SaveDiskImage(disk, path).ok());
  SimClock load_clock;
  auto loaded = LoadDiskImage(path, &load_clock);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Chunks(**loaded), Chunks(disk));
}

TEST(AverageAccessTest, GrowsSlowlyForSmallSizes) {
  // Figure 2's shape on a Table 1 drive: 16x more data for well under 2x
  // the time at the small end.
  SimClock clock;
  DiskModel model(HpC3653(), &clock);
  const double t4k = model.AverageAccessTime(4096).millis();
  const double t64k = model.AverageAccessTime(64 * 1024).millis();
  EXPECT_LT(t64k, 2.0 * t4k);
}

TEST(SchedulerTest, FcfsKeepsOrder) {
  std::vector<PendingRequest> reqs = {{100, 8}, {50, 8}, {75, 8}};
  auto order = ScheduleOrder(reqs, 0, SchedulerPolicy::kFcfs);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

TEST(SchedulerTest, CLookAscendingFromHeadThenWrap) {
  std::vector<PendingRequest> reqs = {{100, 8}, {50, 8}, {75, 8}, {300, 8}};
  auto order = ScheduleOrder(reqs, 80, SchedulerPolicy::kCLook);
  // Ahead of head 80: 100, 300. Then wrap: 50, 75.
  EXPECT_EQ(order, (std::vector<size_t>{0, 3, 1, 2}));
}

TEST(SchedulerTest, CLookWithHeadPastAll) {
  std::vector<PendingRequest> reqs = {{10, 1}, {20, 1}};
  auto order = ScheduleOrder(reqs, 1000, SchedulerPolicy::kCLook);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1}));
}

TEST(SchedulerTest, SstfPicksNearestNext) {
  std::vector<PendingRequest> reqs = {{100, 1}, {10, 1}, {110, 1}};
  auto order = ScheduleOrder(reqs, 95, SchedulerPolicy::kSstf);
  EXPECT_EQ(order[0], 0u);  // 100 is nearest to 95
  EXPECT_EQ(order[1], 2u);  // then 110 (from 101)
  EXPECT_EQ(order[2], 1u);
}

TEST(SchedulerTest, CLookRequestExactlyAtHeadGoesFirst) {
  // The partition is `lba >= head`, so a request at the head LBA is "ahead"
  // and must not be deferred to the wrap-around pass.
  std::vector<PendingRequest> reqs = {{50, 8}, {80, 8}, {100, 8}};
  auto order = ScheduleOrder(reqs, 80, SchedulerPolicy::kCLook);
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

TEST(SchedulerTest, AllPoliciesHandleEmptyAndSingle) {
  const SchedulerPolicy policies[] = {SchedulerPolicy::kFcfs,
                                      SchedulerPolicy::kCLook,
                                      SchedulerPolicy::kSstf};
  std::vector<PendingRequest> empty;
  std::vector<PendingRequest> one = {{42, 8}};
  for (SchedulerPolicy p : policies) {
    EXPECT_TRUE(ScheduleOrder(empty, 0, p).empty());
    EXPECT_EQ(ScheduleOrder(one, 100, p), (std::vector<size_t>{0}));
  }
}

TEST(SchedulerTest, SstfReturnsCompletePermutation) {
  // Duplicate LBAs and a zero-distance candidate must not confuse the
  // greedy walk: every index appears exactly once.
  std::vector<PendingRequest> reqs = {{70, 4}, {70, 4}, {10, 4},
                                      {70, 4}, {200, 4}, {10, 4}};
  auto order = ScheduleOrder(reqs, 70, SchedulerPolicy::kSstf);
  ASSERT_EQ(order.size(), reqs.size());
  std::vector<bool> seen(reqs.size(), false);
  for (size_t i : order) {
    ASSERT_LT(i, reqs.size());
    EXPECT_FALSE(seen[i]) << "index " << i << " scheduled twice";
    seen[i] = true;
  }
}

TEST(SchedulerTest, CLookReducesSeekDistanceVsFcfs) {
  Rng rng(5);
  std::vector<PendingRequest> reqs;
  for (int i = 0; i < 64; ++i) reqs.push_back({rng.Below(100000), 8});
  auto total_travel = [&](const std::vector<size_t>& order) {
    uint64_t pos = 0, total = 0;
    for (size_t i : order) {
      total += reqs[i].lba > pos ? reqs[i].lba - pos : pos - reqs[i].lba;
      pos = reqs[i].lba;
    }
    return total;
  };
  const uint64_t fcfs = total_travel(ScheduleOrder(reqs, 0, SchedulerPolicy::kFcfs));
  const uint64_t clook = total_travel(ScheduleOrder(reqs, 0, SchedulerPolicy::kCLook));
  EXPECT_LT(clook, fcfs / 4);
}

TEST(DiskSpecTest, Table1MatchesPaperSeekColumns) {
  auto disks = Table1Disks();
  ASSERT_EQ(disks.size(), 3u);
  EXPECT_LT(disks[0].seek_single.millis(), 1.0);   // HP: "< 1 ms"
  EXPECT_DOUBLE_EQ(disks[1].seek_single.millis(), 0.6);
  EXPECT_DOUBLE_EQ(disks[2].seek_single.millis(), 1.0);
  EXPECT_DOUBLE_EQ(disks[0].seek_avg.millis(), 8.7);
  EXPECT_DOUBLE_EQ(disks[1].seek_avg.millis(), 8.0);
  EXPECT_DOUBLE_EQ(disks[2].seek_avg.millis(), 7.9);
  EXPECT_DOUBLE_EQ(disks[0].seek_max.millis(), 16.5);
  EXPECT_DOUBLE_EQ(disks[1].seek_max.millis(), 19.0);
  EXPECT_DOUBLE_EQ(disks[2].seek_max.millis(), 18.0);
}

TEST(DiskSpecTest, MediaRateExceedsTenMBps) {
  // "the subsequent data bandwidth is reasonable (> 10 MB/second)".
  for (const DiskSpec& spec : Table1Disks()) {
    EXPECT_GT(spec.MediaRate(spec.zones.front().sectors_per_track), 10e6)
        << spec.name;
  }
}

}  // namespace
}  // namespace cffs::disk
