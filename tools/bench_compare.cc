// bench_compare: diff two trees of BENCH_*.json reports and fail on any
// change. The CI perf gate: baselines are checked in under bench/baselines/,
// the bench job regenerates the same reports at head and this tool compares
// them leaf by leaf.
//
//   bench_compare --baseline=DIR --candidate=DIR [--verbose]
//
// The simulator is deterministic, so the gate is exact: every leaf of every
// baseline report must appear in the candidate with the identical value
// (numbers compare by value). A report, key or array element missing from
// the candidate fails too — a silently-vanished benchmark is how perf gates
// rot. Leaves only the candidate has are new and pass. A changed result is
// either a bug or an intended change that updates bench/baselines/ in the
// same commit, where the baseline diff is part of the review.
//
// Exit status: 0 = candidate matches, 1 = differences found, 2 = bad
// invocation or unreadable/unparseable input.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/util/cli.h"

using namespace cffs;
namespace fsys = std::filesystem;

namespace {

bool SameLeaf(const obs::Json& a, const obs::Json& b) {
  if (a.is_int() && b.is_int()) return a.as_int() == b.as_int();
  if (a.is_number() && b.is_number()) return a.as_double() == b.as_double();
  return a.Dump() == b.Dump();
}

struct CompareState {
  std::string report;  // file name, for messages
  std::vector<std::string> differences;
  size_t leaves = 0;
};

// `cand` is nullptr when the candidate lacks this node.
void CompareNode(const obs::Json& base, const obs::Json* cand,
                 const std::string& path, CompareState* st) {
  if (base.is_object()) {
    const bool obj = cand != nullptr && cand->is_object();
    for (const auto& [key, value] : base.members()) {
      CompareNode(value, obj ? cand->Find(key) : nullptr,
                  path.empty() ? key : path + "." + key, st);
    }
  } else if (base.is_array()) {
    const bool arr = cand != nullptr && cand->is_array();
    for (size_t i = 0; i < base.size(); ++i) {
      CompareNode(base.at(i),
                  arr && i < cand->size() ? &cand->at(i) : nullptr,
                  path + "[" + std::to_string(i) + "]", st);
    }
  } else {
    ++st->leaves;
    if (cand == nullptr) {
      st->differences.push_back(st->report + ": " + path +
                                ": missing from candidate");
    } else if (!SameLeaf(base, *cand)) {
      st->differences.push_back(st->report + ": " + path + ": " +
                                base.Dump() + " -> " + cand->Dump());
    }
  }
}

Result<obs::Json> LoadJson(const fsys::path& path) {
  ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path.string()));
  return obs::Json::Parse(text);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  std::string baseline, candidate;
  args.String("--baseline", &baseline);
  args.String("--candidate", &candidate);
  const bool verbose = args.Switch("--verbose");
  Status bad = args.Finish();
  if (bad.ok() && (baseline.empty() || candidate.empty())) {
    bad = InvalidArgument("want --baseline and --candidate");
  }
  if (!bad.ok()) {
    return UsageError(argv[0], bad,
                      "--baseline=DIR --candidate=DIR [--verbose]");
  }
  if (!fsys::is_directory(baseline)) {
    std::fprintf(stderr, "baseline dir not found: %s\n",
                 baseline.c_str());
    return 2;
  }
  if (!fsys::is_directory(candidate)) {
    std::fprintf(stderr, "candidate dir not found: %s\n",
                 candidate.c_str());
    return 2;
  }

  std::vector<std::string> all_differences;
  size_t reports = 0, leaves = 0;
  std::vector<fsys::path> files;
  for (const auto& entry : fsys::directory_iterator(baseline)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no BENCH_*.json in %s\n", baseline.c_str());
    return 2;
  }

  for (const fsys::path& base_path : files) {
    const std::string name = base_path.filename().string();
    const fsys::path cand_path = fsys::path(candidate) / name;
    if (!fsys::exists(cand_path)) {
      all_differences.push_back(name + ": missing from candidate dir");
      continue;
    }
    auto base = LoadJson(base_path);
    if (!base.ok()) return Fail(base_path.string(), base.status(), 2);
    auto cand = LoadJson(cand_path);
    if (!cand.ok()) return Fail(cand_path.string(), cand.status(), 2);
    CompareState st;
    st.report = name;
    CompareNode(*base, &*cand, "", &st);
    ++reports;
    leaves += st.leaves;
    if (verbose) {
      std::printf("  %s: %zu leaves, %zu differences\n", name.c_str(),
                  st.leaves, st.differences.size());
    }
    for (std::string& d : st.differences) {
      all_differences.push_back(std::move(d));
    }
  }

  std::printf("bench_compare: %zu reports, %zu leaves compared, "
              "%zu differences\n",
              reports, leaves, all_differences.size());
  for (const std::string& d : all_differences) {
    std::fprintf(stderr, "difference: %s\n", d.c_str());
  }
  return all_differences.empty() ? 0 : 1;
}
