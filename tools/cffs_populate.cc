// cffs_populate: write a small demo tree into an existing image.
//
//   cffs_populate <image> [--files=40] [--dirs=4] [--seed=1]
//
// A bad argument or an unusable image prints a message and exits 2.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/disk/image.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "tools/image_machine.h"

using namespace cffs;

int main(int argc, char** argv) {
  uint64_t files = 40, dirs = 4, seed = 1;
  Args args(argc, argv);
  args.Uint("--files", 0, 1u << 24, &files);
  args.Uint("--dirs", 1, 1u << 20, &dirs);
  args.Uint("--seed", 0, UINT64_MAX, &seed);
  const std::vector<std::string> paths = args.Words();
  Status bad = args.Finish();
  if (bad.ok() && paths.size() != 1) bad = InvalidArgument("want one image");
  if (!bad.ok()) {
    return UsageError(argv[0], bad,
                      "<image> [--files=N] [--dirs=N] [--seed=N]");
  }
  const std::string& path = paths[0];

  auto env = sim::SimEnv::OpenImage(path, ImageMachine());
  if (!env.ok()) return Fail(path, env.status(), 2);
  fs::PathOps& p = (*env)->path();
  Rng rng(seed);
  for (uint64_t f = 0; f < files; ++f) {
    const std::string dir = "/demo" + std::to_string(f % dirs);
    if (auto s = p.MkdirAll(dir); !s.ok()) return Fail("mkdir", s.status());
    std::vector<uint8_t> data(rng.Below(6000) + 64);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    if (auto s = p.WriteFile(dir + "/file" + std::to_string(f), data);
        !s.ok()) {
      return Fail("write", s);
    }
  }
  if (auto s = (*env)->fs()->Sync(); !s.ok()) return Fail("sync", s);
  if (auto s = disk::SaveDiskImage((*env)->disk(), path); !s.ok()) {
    return Fail("save", s);
  }
  std::printf("populated %s with %llu files in %llu dirs\n", path.c_str(),
              static_cast<unsigned long long>(files),
              static_cast<unsigned long long>(dirs));
  return 0;
}
