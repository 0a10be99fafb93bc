// cffs_mkfs: create a file-system image.
//
//   cffs_mkfs <image> [KEY=VALUE ...] [--mb=256]
//
// KEY=VALUE tokens describe the machine that formats the image, in the
// config-string syntax of src/sim/sim_env.h (fs=c-ffs by default). The
// image records fs, group_blocks, blocks_per_cg and extent_alloc; --mb
// scales the zones of the drive that disk names (the ST31200 by default).
// A bad argument prints a message and exits 2.
// The image file stores both the simulated drive and the file system built
// on it; cffs_populate, cffs_debug and cffs_fsck operate on the same file.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/disk/image.h"
#include "src/util/cli.h"
#include "tools/image_machine.h"

using namespace cffs;

int main(int argc, char** argv) {
  uint64_t mb = 256;
  Args args(argc, argv);
  args.Uint("--mb", 1, 65536, &mb);
  std::vector<std::string> paths;
  std::string tokens;
  for (const std::string& w : args.Words()) {
    if (w.find('=') == std::string::npos) {
      paths.push_back(w);
    } else {
      tokens += w + " ";
    }
  }
  sim::FsKind kind = sim::FsKind::kCffs;
  sim::SimConfig config = ImageMachine();
  Status bad = args.Finish();
  if (bad.ok()) bad = sim::ParseConfig(tokens, &kind, &config);
  if (bad.ok() && paths.size() != 1) bad = InvalidArgument("want one image");
  if (!bad.ok()) {
    return UsageError(argv[0], bad, "<image> [KEY=VALUE ...] [--mb=N]");
  }
  const std::string& path = paths[0];

  // Size the drive: scale its zones to the requested capacity.
  disk::DiskSpec& spec = config.disk_spec;
  const uint64_t want_sectors = mb * 1024 * 1024 / disk::kSectorSize;
  const uint64_t have = spec.MakeGeometry().total_sectors();
  for (auto& z : spec.zones) {
    z.cylinders = static_cast<uint32_t>(
        std::max<uint64_t>(1, z.cylinders * want_sectors / have));
  }
  auto env = sim::SimEnv::Create(kind, config);
  if (!env.ok()) return Fail("format failed", env.status());
  if (Status s = disk::SaveDiskImage((*env)->disk(), path); !s.ok()) {
    return Fail("save failed", s);
  }
  std::printf("created %s image (%llu MB) at %s\n",
              sim::FsKindName(kind).c_str(),
              static_cast<unsigned long long>(mb), path.c_str());
  return 0;
}
