// Tests for the config-string parser and printer (src/sim/sim_env.h) and the
// checked command-line parsing under it (src/util/cli.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/sim_env.h"
#include "src/util/cli.h"

namespace cffs::sim {
namespace {

constexpr FsKind kKinds[] = {FsKind::kFfs, FsKind::kConventional,
                             FsKind::kEmbedOnly, FsKind::kGroupOnly,
                             FsKind::kCffs};

// ConfigString -> ParseConfig must give back (kind, config) exactly, and
// printing that again must give the same string.
void ExpectRoundTrip(FsKind kind, const SimConfig& config) {
  const std::string text = ConfigString(kind, config);
  FsKind parsed_kind = kind == FsKind::kFfs ? FsKind::kCffs : FsKind::kFfs;
  SimConfig parsed;
  parsed.cache_blocks = 99;  // every key is printed, so nothing survives
  ASSERT_TRUE(ParseConfig(text, &parsed_kind, &parsed).ok()) << text;
  EXPECT_EQ(parsed_kind, kind) << text;
  EXPECT_TRUE(parsed == config) << text;
  EXPECT_EQ(ConfigString(parsed_kind, parsed), text);
}

TEST(SimConfigTest, DefaultStringIsPinned) {
  EXPECT_EQ(ConfigString(FsKind::kCffs, SimConfig{}),
            "fs=c-ffs disk=seagate-st31200 device=spinning cache_blocks=2048 "
            "scheduler=clook metadata=sync group_blocks=16 blocks_per_cg=2048 "
            "extent_alloc=0 name_caches=1 syncer=0 syncer_interval=30s "
            "syncer_max_age=30s dirty_high_watermark=0.75 "
            "deterministic_mtime=0 shards=0");
}

TEST(SimConfigTest, EveryKindDeviceAndPolicyRoundTrips) {
  for (FsKind kind : kKinds) {
    for (const char* device : {"spinning", "flash"}) {
      for (auto metadata : {fs::MetadataPolicy::kSynchronous,
                            fs::MetadataPolicy::kDelayed}) {
        for (bool syncer : {false, true}) {
          for (bool extents : {false, true}) {
            SimConfig c;
            c.device = device;
            c.metadata = metadata;
            c.syncer = syncer;
            c.extent_alloc = extents;
            ExpectRoundTrip(kind, c);
          }
        }
      }
    }
  }
}

TEST(SimConfigTest, TheBenchAndTestConfigsRoundTrip) {
  std::vector<SimConfig> configs;
  for (const disk::DiskSpec& d :
       {disk::HpC3653(), disk::SeagateBarracuda(), disk::QuantumAtlasII(),
        disk::SeagateSt31200(), disk::TestDisk(512, 4, 64),
        disk::TestDisk(2048, 4, 64)}) {
    configs.emplace_back().disk_spec = d;
  }
  configs.emplace_back().disk_spec.prefetch_sectors = 0;  // prefetch ablation
  SimConfig syncer;
  syncer.syncer = true;
  syncer.syncer_interval = SimTime::Millis(100);
  syncer.syncer_max_age = SimTime::Millis(100);
  configs.push_back(syncer);
  syncer.syncer_interval = syncer.syncer_max_age = SimTime::Seconds(1000);
  syncer.dirty_high_watermark = 0.25;
  configs.push_back(syncer);
  configs.emplace_back().dirty_high_watermark = 0.2;
  configs.emplace_back().cache_blocks = 256;
  configs.emplace_back().cache_blocks = 8192;
  configs.emplace_back().shards = 4;
  for (auto policy : {disk::SchedulerPolicy::kFcfs,
                      disk::SchedulerPolicy::kCLook,
                      disk::SchedulerPolicy::kSstf}) {
    configs.emplace_back().scheduler = policy;
  }
  configs.emplace_back().name_caches = false;
  configs.emplace_back().group_blocks = 8;
  configs.emplace_back().blocks_per_cg = 1024;
  configs.emplace_back().deterministic_mtime = true;
  for (const SimConfig& c : configs) ExpectRoundTrip(FsKind::kCffs, c);

  SimConfig prefetch_off;
  prefetch_off.disk_spec.prefetch_sectors = 0;
  EXPECT_NE(ConfigString(FsKind::kCffs, prefetch_off)
                .find(" disk=seagate-st31200-prefetch0 "),
            std::string::npos);
  SimConfig test_disk;
  test_disk.disk_spec = disk::TestDisk(2048, 4, 64);
  EXPECT_NE(
      ConfigString(FsKind::kCffs, test_disk).find(" disk=test-2048x4x64 "),
      std::string::npos);
}

TEST(SimConfigTest, APartialStringSetsOnlyItsKeys) {
  FsKind kind = FsKind::kCffs;
  SimConfig config;
  config.cache_blocks = 512;
  ASSERT_TRUE(ParseConfig("  fs=ffs metadata=delayed  syncer=1 "
                          "syncer_interval=100ms ",
                          &kind, &config)
                  .ok());
  EXPECT_EQ(kind, FsKind::kFfs);
  EXPECT_EQ(config.metadata, fs::MetadataPolicy::kDelayed);
  EXPECT_TRUE(config.syncer);
  EXPECT_EQ(config.syncer_interval, SimTime::Millis(100));
  EXPECT_EQ(config.syncer_max_age, SimTime::Seconds(30));
  EXPECT_EQ(config.cache_blocks, 512u);  // not named: kept
  // Durations print in the largest unit that divides them.
  ASSERT_TRUE(ParseConfig("syncer_max_age=3000000us", &kind, &config).ok());
  EXPECT_NE(ConfigString(kind, config).find("syncer_max_age=3s"),
            std::string::npos);
}

// One case per rejection class; a rejected string changes nothing.
TEST(SimConfigTest, BadStringsAreRejected) {
  const char* bad[] = {
      "nosuchkey=1",                // unknown key
      "fs=c-ffs fs=ffs",            // repeated key
      "device=flsh",                // unknown name
      "fs=cffs",                    // unknown name (not FsKindName's)
      "disk=seagate-st31201",       // unknown drive
      "disk=custom",                // a spec no name describes
      "disk=test-2048x4",           // malformed geometry
      "cache_blocks=12abc",         // trailing garbage
      "dirty_high_watermark=0.5x",  // trailing garbage
      "syncer_interval=100",        // no unit
      "shards=-1",                  // sign on an unsigned field
      "cache_blocks=+2048",         // sign on an unsigned field
      "shards=65",                  // above kMaxShards
      "group_blocks=0",             // out of range
      "dirty_high_watermark=1.5",   // out of range
      "syncer_interval=0ms",        // out of range
      "extent_alloc=2",             // out of range
      "cache_blocks=18446744073709551616",  // overflow
      "metadata",                   // not key=value
  };
  for (const char* text : bad) {
    FsKind kind = FsKind::kCffs;
    SimConfig config;
    config.cache_blocks = 777;
    const Status s = ParseConfig("fs=ffs " + std::string(text), &kind, &config);
    EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument) << text;
    EXPECT_FALSE(s.message().empty()) << text;
    EXPECT_EQ(kind, FsKind::kCffs) << text;
    EXPECT_EQ(config.cache_blocks, 777u) << text;
  }
}

TEST(SimConfigTest, AnUnnamedDiskPrintsAsCustom) {
  SimConfig config;
  config.disk_spec.seek_avg = SimTime::Millis(9);
  const std::string text = ConfigString(FsKind::kCffs, config);
  EXPECT_NE(text.find(" disk=custom "), std::string::npos) << text;
  FsKind kind = FsKind::kCffs;
  EXPECT_FALSE(ParseConfig(text, &kind, &config).ok());
}

TEST(SimConfigTest, DeviceNamesAreTheParsersNames) {
  EXPECT_TRUE(KnownDevice("spinning"));
  EXPECT_TRUE(KnownDevice("flash"));
  EXPECT_FALSE(KnownDevice("flsh"));
  EXPECT_FALSE(KnownDevice(""));
}

TEST(ParseUintTest, AcceptsOnlyAWholeNumberInRange) {
  EXPECT_EQ(*ParseUint("0", 0, 10), 0u);
  EXPECT_EQ(*ParseUint("10", 0, 10), 10u);
  EXPECT_EQ(*ParseUint("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12abc", "0x10", "11",
                          "1.0"}) {
    EXPECT_FALSE(ParseUint(bad, 0, 10).ok()) << bad;
  }
  EXPECT_FALSE(ParseUint("18446744073709551616", 0, UINT64_MAX).ok());
  EXPECT_FALSE(ParseUint("0", 1, 10).ok());
}

Status ParseArgs(std::vector<const char*> argv, uint32_t* files,
                 std::vector<std::string>* words = nullptr) {
  argv.insert(argv.begin(), "tool");
  Args args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  args.Uint("--files", 1, 100, files);
  args.Switch("--quick");
  if (words != nullptr) *words = args.Words();
  return args.Finish();
}

TEST(ArgsTest, ChecksEveryArgument) {
  uint32_t files = 7;
  std::vector<std::string> words;
  ASSERT_TRUE(ParseArgs({"fs=ffs", "--files=12", "--quick", "x"}, &files,
                        &words)
                  .ok());
  EXPECT_EQ(files, 12u);
  EXPECT_EQ(words, (std::vector<std::string>{"fs=ffs", "x"}));
  EXPECT_FALSE(ParseArgs({"--files=12abc"}, &files).ok());
  EXPECT_FALSE(ParseArgs({"--files=-1"}, &files).ok());
  EXPECT_FALSE(ParseArgs({"--files=1", "--files=2"}, &files).ok());
  EXPECT_FALSE(ParseArgs({"--quik"}, &files).ok());
  EXPECT_FALSE(ParseArgs({"--quick=1"}, &files).ok());
  EXPECT_FALSE(ParseArgs({"stray"}, &files).ok());  // words not asked for
  EXPECT_EQ(files, 12u);
}

}  // namespace
}  // namespace cffs::sim
