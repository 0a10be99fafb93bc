// cffs_mkfs: create a file-system image.
//
//   cffs_mkfs <image> [--type=cffs|ffs] [--mb=256] [--group-blocks=16]
//             [--no-embed] [--no-group]
//
// A bad argument prints a message and exits 2.
// The image file stores both the simulated drive (an ST31200-timed disk
// sized to --mb) and the file system built on it; cffs_debug and cffs_fsck
// operate on the same file.
#include <cstdio>
#include <string>
#include <vector>

#include "src/disk/image.h"
#include "src/fs/cffs/cffs.h"
#include "src/fs/ffs/ffs.h"
#include "src/util/cli.h"

using namespace cffs;

int main(int argc, char** argv) {
  std::string type = "cffs";
  uint64_t mb = 256;
  fs::CffsOptions options;
  Args args(argc, argv);
  args.String("--type", &type);
  args.Uint("--mb", 1, 65536, &mb);
  args.Uint("--group-blocks", 1, 64, &options.group_blocks);
  if (args.Switch("--no-embed")) options.embed_inodes = false;
  if (args.Switch("--no-group")) options.grouping = false;
  const std::vector<std::string> paths = args.Words();
  Status bad = args.Finish();
  if (bad.ok() && paths.size() != 1) bad = InvalidArgument("want one image");
  if (bad.ok() && type != "cffs" && type != "ffs") {
    bad = InvalidArgument("unknown --type=" + type);
  }
  if (!bad.ok()) {
    return UsageError(argv[0], bad,
                      "<image> [--type=cffs|ffs] [--mb=N] [--group-blocks=N] "
                      "[--no-embed] [--no-group]");
  }
  const std::string& path = paths[0];

  // Size the drive: scale the ST31200's zones to the requested capacity.
  SimClock clock;
  disk::DiskSpec spec = disk::SeagateSt31200();
  const uint64_t want_sectors = mb * 1024 * 1024 / disk::kSectorSize;
  const uint64_t have = spec.MakeGeometry().total_sectors();
  for (auto& z : spec.zones) {
    z.cylinders = static_cast<uint32_t>(
        std::max<uint64_t>(1, z.cylinders * want_sectors / have));
  }
  disk::DiskModel disk(spec, &clock);
  blk::BlockDevice dev(&disk, disk::SchedulerPolicy::kCLook);
  cache::BufferCache cache(&dev, 4096);

  Status status = OkStatus();
  if (type == "ffs") {
    auto fs = fs::FfsFileSystem::Format(&cache, &clock, fs::FfsParams{},
                                        fs::MetadataPolicy::kSynchronous);
    status = fs.status();
  } else {
    auto fs = fs::CffsFileSystem::Format(&cache, &clock, options,
                                         fs::MetadataPolicy::kSynchronous);
    status = fs.status();
  }
  if (!status.ok()) return Fail("format failed", status);
  if (Status s = disk::SaveDiskImage(disk, path); !s.ok()) {
    return Fail("save failed", s);
  }
  std::printf("created %s image (%llu MB) at %s\n", type.c_str(),
              static_cast<unsigned long long>(mb), path.c_str());
  return 0;
}
