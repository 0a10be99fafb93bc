// cffs_lint: repo-specific static analysis over the C-FFS sources.
//
// A declaration-level pass (no compiler front end) enforcing the rules in
// tools/lint/rules.json: ordering-annotation coverage for metadata dirty
// sites, Status/Result discard discipline, the cross-layer include table,
// and on-disk struct format pins. See src/lint/rules.h for rule semantics
// and DESIGN.md §13 for the catalog.
//
//   cffs_lint --rules=FILE [--root=DIR] [--json[=FILE]] [paths...]
//   cffs_lint --rules=FILE --self-test --fixtures=DIR
//
// Paths override the catalog's scan roots (they stay relative to --root,
// default "."). --json writes the findings document to stdout or FILE.
// --self-test runs the mutation-style fixture check instead of a scan:
// every rule must convict exactly its seeded fixture, and the clean
// fixture must produce no findings.
//
// Exit status: 0 clean, 1 findings (or failed self-test), 2 usage/IO error.
#include <cstdio>
#include <string>
#include <vector>

#include "src/lint/rules.h"
#include "src/util/cli.h"

using cffs::lint::Finding;
using cffs::lint::LintConfig;

int main(int argc, char** argv) {
  cffs::Args args(argc, argv);
  std::string rules_path, root = ".", fixtures_dir, json_out;
  args.String("--rules", &rules_path);
  args.String("--root", &root);
  args.String("--fixtures", &fixtures_dir);
  args.String("--json", &json_out);
  const bool want_json = args.Switch("--json") || !json_out.empty();
  const bool self_test = args.Switch("--self-test");
  const std::vector<std::string> paths = args.Words();
  cffs::Status bad = args.Finish();
  if (bad.ok() && (rules_path.empty() || self_test == fixtures_dir.empty())) {
    bad = cffs::InvalidArgument("--rules is required; --fixtures goes with "
                                "--self-test");
  }
  if (!bad.ok()) {
    return cffs::UsageError(argv[0], bad,
                            "--rules=FILE [--root=DIR] [--json[=FILE]] "
                            "[paths...]\n   or: cffs_lint --rules=FILE "
                            "--self-test --fixtures=DIR");
  }

  cffs::Result<std::string> rules_text = cffs::ReadTextFile(rules_path);
  if (!rules_text.ok()) return cffs::Fail("cffs_lint", rules_text.status(), 2);
  cffs::Result<LintConfig> cfg = LintConfig::Load(*rules_text);
  if (!cfg.ok()) {
    std::fprintf(stderr, "cffs_lint: %s: %s\n", rules_path.c_str(),
                 cfg.status().ToString().c_str());
    return 2;
  }

  if (self_test) {
    const cffs::Status st = cffs::lint::SelfTest(fixtures_dir, *cfg);
    if (!st.ok()) return cffs::Fail("cffs_lint", st);
    std::printf("cffs_lint: self-test OK (%zu rules convicted)\n",
                cfg->fixtures.count("clean") > 0 ? cfg->fixtures.size() - 1
                                                 : cfg->fixtures.size());
    return 0;
  }

  size_t files_scanned = 0;
  cffs::Result<std::vector<Finding>> findings =
      cffs::lint::LintTree(root, *cfg, paths, &files_scanned);
  if (!findings.ok()) return cffs::Fail("cffs_lint", findings.status(), 2);

  for (const Finding& f : *findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (want_json) {
    const std::string doc =
        cffs::lint::FindingsToJson(root, files_scanned, *findings).Dump(2);
    if (json_out.empty()) {
      std::printf("%s\n", doc.c_str());
    } else if (cffs::Status st = cffs::WriteTextFile(json_out, doc);
               !st.ok()) {
      return cffs::Fail("cffs_lint", st, 2);
    }
  }
  if (findings->empty()) {
    std::fprintf(stderr, "cffs_lint: %zu files clean\n", files_scanned);
    return 0;
  }
  std::fprintf(stderr, "cffs_lint: %zu finding(s) in %zu files\n",
               findings->size(), files_scanned);
  return 1;
}
