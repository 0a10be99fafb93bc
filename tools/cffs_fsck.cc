// cffs_fsck: check (and optionally repair) a file-system image.
//
//   cffs_fsck <image> [--repair]
//
// Exit status: 0 clean, 1 problems found (or repaired — rerun to confirm),
// 2 usage / unusable image.
#include <cstdio>
#include <string>
#include <vector>

#include "src/disk/image.h"
#include "src/fsck/fsck.h"
#include "src/util/cli.h"
#include "tools/image_machine.h"

using namespace cffs;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const bool repair = args.Switch("--repair");
  const std::vector<std::string> paths = args.Words();
  Status bad = args.Finish();
  if (bad.ok() && paths.size() != 1) bad = InvalidArgument("want one image");
  if (!bad.ok()) return UsageError(argv[0], bad, "<image> [--repair]");
  const std::string& path = paths[0];

  auto env = sim::SimEnv::OpenImage(path, ImageMachine());
  if (!env.ok()) return Fail(path, env.status(), 2);
  auto report = fsck::Check((*env)->fs_base(), {.repair = repair});
  if (!report.ok()) return Fail("fsck", report.status(), 2);

  std::printf("%llu files, %llu directories, %llu referenced blocks\n",
              static_cast<unsigned long long>(report->files),
              static_cast<unsigned long long>(report->directories),
              static_cast<unsigned long long>(report->referenced_blocks));
  for (const auto& p : report->problems) std::printf("PROBLEM: %s\n", p.c_str());
  if (repair && report->repaired > 0) {
    if (Status s = (*env)->fs()->Sync(); !s.ok()) return Fail("sync", s, 2);
    if (Status s = disk::SaveDiskImage((*env)->disk(), path); !s.ok()) {
      return Fail("save", s, 2);
    }
    std::printf("repaired %llu issue(s); image updated\n",
                static_cast<unsigned long long>(report->repaired));
  }
  std::printf("%s\n", report->clean ? "CLEAN" : "DIRTY");
  return report->clean ? 0 : 1;
}
