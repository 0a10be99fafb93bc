// cffs_debug: debugfs-style inspector for file-system images.
//
//   cffs_debug <image> [sb] [tree] [alloc] [frag] [dir <path>] ...
//
// Runs the commands in order; with none, prints sb, alloc, frag and tree.
// An unknown command, `dir` without a path or an unusable image prints a
// message and exits 2; a command that fails exits 1.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/common/dump.h"
#include "src/util/cli.h"
#include "tools/image_machine.h"

using namespace cffs;

namespace {

constexpr char kUsage[] = "<image> [sb] [tree] [alloc] [frag] [dir <path>] ...";

// One command's output; `path` is dir's argument.
Result<std::string> RunCommand(sim::SimEnv& env, const std::string& cmd,
                               const std::string& path) {
  fs::FsBase* fs = env.fs_base();
  if (cmd == "sb") return fs::DumpSuperblock(fs);
  if (cmd == "tree") return fs::DumpTree(fs);
  if (cmd == "alloc") return fs::DumpAllocation(fs);
  if (cmd == "frag") {
    ASSIGN_OR_RETURN(const fs::FragmentationStats stats,
                     fs::MeasureFragmentation(fs->allocator(),
                                              env.config().group_blocks));
    return fs::DescribeFragmentation(stats) + "\n";
  }
  ASSIGN_OR_RETURN(const fs::InodeNum dir, env.path().Resolve(path));
  return fs::DumpDirectory(fs, dir);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::vector<std::string> words = args.Words();
  Status bad = args.Finish();
  if (bad.ok() && words.empty()) bad = InvalidArgument("want an image");
  std::vector<std::pair<std::string, std::string>> cmds;  // command, path
  for (size_t i = 1; bad.ok() && i < words.size(); ++i) {
    const std::string& cmd = words[i];
    if (cmd == "dir") {
      if (i + 1 == words.size()) {
        bad = InvalidArgument("dir needs a path");
      } else {
        cmds.emplace_back(cmd, words[++i]);
      }
    } else if (cmd == "sb" || cmd == "tree" || cmd == "alloc" ||
               cmd == "frag") {
      cmds.emplace_back(cmd, "");
    } else {
      bad = InvalidArgument("unknown command " + cmd);
    }
  }
  if (!bad.ok()) return UsageError(argv[0], bad, kUsage);
  if (cmds.empty()) {
    cmds = {{"sb", ""}, {"alloc", ""}, {"frag", ""}, {"tree", ""}};
  }

  auto env = sim::SimEnv::OpenImage(words[0], ImageMachine());
  if (!env.ok()) return Fail(words[0], env.status(), 2);
  for (const auto& [cmd, path] : cmds) {
    const Result<std::string> out = RunCommand(**env, cmd, path);
    if (!out.ok()) return Fail(cmd, out.status());
    std::printf("=== %s ===\n%s\n", cmd.c_str(), out->c_str());
  }
  return 0;
}
