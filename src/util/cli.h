// Command-line support shared by the tools and the benches: the checked
// number parser (sim::ParseConfig uses it too), "--flag" arguments, and
// whole text files.
#ifndef CFFS_UTIL_CLI_H_
#define CFFS_UTIL_CLI_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace cffs {

// All of `text` as a decimal number in [min, max]; a sign, a blank, any
// other character, overflow or a value out of range is InvalidArgument.
Result<uint64_t> ParseUint(std::string_view text, uint64_t min, uint64_t max);

// A program's arguments: "--name=value" flags, "--name" switches, and words
// (anything else). Each accessor claims what it names and returns whether
// it was given; Finish() reports the first bad value or repeated flag, then
// any argument nobody claimed.
class Args {
 public:
  Args(int argc, char** argv)
      : args_(argv + 1, argv + argc), claimed_(args_.size()) {}

  bool Switch(std::string_view name) { return Claim(name, false).has_value(); }
  bool String(std::string_view name, std::string* out) {
    const std::optional<std::string> v = Claim(name, true);
    if (v) *out = *v;
    return v.has_value();
  }
  template <typename T>
  bool Uint(std::string_view name, uint64_t min, uint64_t max, T* out) {
    const std::optional<std::string> v = Claim(name, true);
    if (!v) return false;
    max = std::min<uint64_t>(max, std::numeric_limits<T>::max());
    const Result<uint64_t> n = ParseUint(*v, min, max);
    if (n.ok()) {
      *out = static_cast<T>(*n);
    } else if (error_.ok()) {
      error_ = InvalidArgument(std::string(name) + ": " + n.status().message());
    }
    return true;
  }
  std::vector<std::string> Words();

  Status Finish() const;

 private:
  std::optional<std::string> Claim(std::string_view name, bool with_value);

  std::vector<std::string> args_;
  std::vector<bool> claimed_;
  Status error_;
};

// Prints "<argv0>: <why>" and the usage line to stderr; returns 2, the
// exit status of a bad command line.
int UsageError(const char* argv0, const Status& why, std::string_view usage);

// Prints "<what>: <status>" to stderr and returns `exit_status`: how a tool
// reports a step that failed.
int Fail(std::string_view what, const Status& status, int exit_status = 1);

// Writes `text` and a newline to `path`.
Status WriteTextFile(const std::string& path, std::string_view text);
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace cffs

#endif  // CFFS_UTIL_CLI_H_
