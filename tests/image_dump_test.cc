// Tests for disk-image persistence, the dump/inspection library, and
// on-line parameter extraction.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>

#include "src/disk/extract.h"
#include "src/disk/image.h"
#include "src/fs/common/dump.h"
#include "src/sim/sim_env.h"
#include "src/util/bytes.h"

namespace cffs {
namespace {

std::string TempImagePath(const char* tag) {
  return std::string(::testing::TempDir()) + "/cffs_" + tag + ".img";
}

// Saves an image of a small drive with one written chunk, lets `patch`
// edit the file's bytes, and loads the result. `patch` gets the offset of
// the first zone's entry and of the chunk's index.
Status LoadPatchedImage(
    const char* tag,
    const std::function<void(std::vector<uint8_t>& bytes, size_t zone_at,
                             size_t chunk_at)>& patch) {
  SimClock clock;
  const disk::DiskSpec spec = disk::TestDisk(64, 2, 32);  // chunks 0..15
  disk::DiskModel disk(spec, &clock);
  EXPECT_TRUE(
      disk.Write(100, 1, std::vector<uint8_t>(disk::kSectorSize, 7)).ok());
  const std::string path = TempImagePath(tag);
  EXPECT_TRUE(disk::SaveDiskImage(disk, path).ok());
  SimClock load_clock;
  EXPECT_TRUE(disk::LoadDiskImage(path, &load_clock).ok());  // unpatched

  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  // The fixed header, the zone table and the name, then the chunk count.
  const size_t zone_at = 128;
  const size_t chunk_at =
      zone_at + spec.zones.size() * 8 + spec.name.size() + 8;
  patch(bytes, zone_at, chunk_at);
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  const Status status = disk::LoadDiskImage(path, &load_clock).status();
  std::remove(path.c_str());
  return status;
}

void ExpectCorrupt(const Status& status, const std::string& field) {
  EXPECT_EQ(status.code(), ErrorCode::kCorrupt) << status.ToString();
  EXPECT_NE(status.message().find(field), std::string::npos)
      << status.ToString();
}

TEST(DiskImageTest, RoundTripsSpecAndContents) {
  SimClock clock;
  disk::DiskSpec spec = disk::SeagateSt31200();
  disk::DiskModel disk(spec, &clock);
  std::vector<uint8_t> data(disk::kSectorSize);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(disk.Write(12345, 1, data).ok());
  ASSERT_TRUE(disk.Write(7, 1, data).ok());

  const std::string path = TempImagePath("roundtrip");
  ASSERT_TRUE(disk::SaveDiskImage(disk, path).ok());

  SimClock clock2;
  auto loaded = disk::LoadDiskImage(path, &clock2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->spec().name, spec.name);
  EXPECT_EQ((*loaded)->spec().rpm, spec.rpm);
  EXPECT_EQ((*loaded)->total_sectors(), disk.total_sectors());
  std::vector<uint8_t> back(disk::kSectorSize);
  ASSERT_TRUE((*loaded)->Read(12345, 1, back).ok());
  EXPECT_EQ(back, data);
  std::remove(path.c_str());
}

TEST(DiskImageTest, LoadRejectsGarbage) {
  const std::string path = TempImagePath("garbage");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not an image", f);
  std::fclose(f);
  SimClock clock;
  auto loaded = disk::LoadDiskImage(path, &clock);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(DiskImageTest, LoadRejectsZeroRpm) {
  ExpectCorrupt(LoadPatchedImage("rpm0", [](auto& b, size_t, size_t) {
                  PutU32(b, 8, 0);
                }),
                "rpm");
}

TEST(DiskImageTest, LoadRejectsZeroHeads) {
  ExpectCorrupt(LoadPatchedImage("heads0", [](auto& b, size_t, size_t) {
                  PutU32(b, 12, 0);
                }),
                "heads");
}

TEST(DiskImageTest, LoadRejectsZoneWithoutCylinders) {
  ExpectCorrupt(LoadPatchedImage("cyl0", [](auto& b, size_t zone, size_t) {
                  PutU32(b, zone, 0);
                }),
                "cylinders");
}

TEST(DiskImageTest, LoadRejectsZoneWithoutSectorsPerTrack) {
  ExpectCorrupt(LoadPatchedImage("spt0", [](auto& b, size_t zone, size_t) {
                  PutU32(b, zone + 4, 0);
                }),
                "sectors per track");
}

TEST(DiskImageTest, LoadRejectsChunkPastTheDrive) {
  ExpectCorrupt(LoadPatchedImage("chunk16", [](auto& b, size_t, size_t chunk) {
                  PutU64(b, chunk, 16);
                }),
                "chunk 16");
}

TEST(DiskImageTest, FileSystemSurvivesImageRoundTrip) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.blocks_per_cg = 1024;
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE((*env)->path().MkdirAll("/persist").ok());
  std::vector<uint8_t> payload(3000, 0x44);
  ASSERT_TRUE((*env)->path().WriteFile("/persist/file", payload).ok());
  ASSERT_TRUE((*env)->fs()->Sync().ok());

  const std::string path = TempImagePath("fsimage");
  ASSERT_TRUE(disk::SaveDiskImage((*env)->disk(), path).ok());

  auto opened = sim::SimEnv::OpenImage(path, sim::SimConfig{});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->kind(), sim::FsKind::kCffs);
  EXPECT_EQ((*opened)->config().blocks_per_cg, 1024u);
  auto back = (*opened)->path().ReadFile("/persist/file");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
}

class DumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::SimConfig config;
    config.disk_spec = disk::TestDisk(512, 4, 64);
    config.blocks_per_cg = 1024;
    auto env = sim::SimEnv::Create(sim::FsKind::kCffs, config);
    ASSERT_TRUE(env.ok());
    env_ = std::move(*env);
    ASSERT_TRUE(env_->path().MkdirAll("/docs").ok());
    ASSERT_TRUE(env_->path()
                    .WriteFile("/docs/readme", std::vector<uint8_t>(500, 'r'))
                    .ok());
    ASSERT_TRUE(env_->path()
                    .WriteFile("/docs/guide", std::vector<uint8_t>(9000, 'g'))
                    .ok());
  }
  std::unique_ptr<sim::SimEnv> env_;
};

TEST_F(DumpTest, TreeShowsAllNames) {
  auto tree = fs::DumpTree(static_cast<fs::FsBase*>(env_->fs()));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_NE(tree->find("docs/"), std::string::npos);
  EXPECT_NE(tree->find("readme"), std::string::npos);
  EXPECT_NE(tree->find("guide"), std::string::npos);
  EXPECT_NE(tree->find("grouped"), std::string::npos);
}

TEST_F(DumpTest, DirectoryDumpShowsEmbedding) {
  auto dir = env_->path().Resolve("/docs");
  ASSERT_TRUE(dir.ok());
  auto out = fs::DumpDirectory(static_cast<fs::FsBase*>(env_->fs()), *dir);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("[embedded]"), std::string::npos);
  EXPECT_NE(out->find("readme"), std::string::npos);
}

TEST_F(DumpTest, SuperblockDumpShowsOptions) {
  auto out = fs::DumpSuperblock(static_cast<fs::CffsFileSystem*>(env_->fs()));
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("embedded inodes     on"), std::string::npos);
  EXPECT_NE(out->find("IFILE"), std::string::npos);
}

TEST_F(DumpTest, FragmentationOnFreshFsIsLow) {
  auto* cfs = static_cast<fs::CffsFileSystem*>(env_->fs());
  auto stats = fs::MeasureFragmentation(cfs->allocator(),
                                        cfs->options().group_blocks);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->free_blocks, 0u);
  EXPECT_GT(stats->groupable_fraction, 0.95);
  EXPECT_FALSE(fs::DescribeFragmentation(*stats).empty());
}

TEST_F(DumpTest, InodeDescriptionMentionsGroup) {
  auto ino = static_cast<fs::FsBase*>(env_->fs())
                 ->LoadInode(*env_->path().Resolve("/docs/readme"));
  ASSERT_TRUE(ino.ok());
  const std::string desc = fs::DescribeInode(*ino);
  EXPECT_NE(desc.find("file"), std::string::npos);
  EXPECT_NE(desc.find("group=["), std::string::npos);
}

TEST(ExtractTest, RecoversRotationPeriod) {
  SimClock clock;
  disk::DiskModel disk(disk::SeagateSt31200(), &clock);
  auto params = disk::ExtractDiskParams(&disk);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_NEAR(params->rotation_period.millis(),
              disk.spec().RotationPeriod().millis(), 0.05);
}

TEST(ExtractTest, RecoversSeekCurveShape) {
  SimClock clock;
  disk::DiskModel disk(disk::TestDisk(1024, 4, 64), &clock);
  auto params = disk::ExtractDiskParams(&disk);
  ASSERT_TRUE(params.ok());
  ASSERT_GE(params->seek_samples.size(), 5u);
  // Extracted samples match the model's own curve within the rotational
  // sampling error (one sector step ~ period/spt).
  const double tolerance_ms =
      disk.spec().RotationPeriod().millis() / 64 * 2 + 0.05;
  for (const auto& [dist, t] : params->seek_samples) {
    const double expect = disk.seek_curve().SeekTime(dist).millis();
    EXPECT_NEAR(t.millis(), expect, tolerance_ms) << "distance " << dist;
  }
  // Monotone shape.
  for (size_t i = 1; i < params->seek_samples.size(); ++i) {
    EXPECT_GE(params->seek_samples[i].second.nanos() + 100000,
              params->seek_samples[i - 1].second.nanos());
  }
}

}  // namespace
}  // namespace cffs
