#include "src/util/cli.h"

#include <cstdio>

namespace cffs {

Result<uint64_t> ParseUint(std::string_view text, uint64_t min, uint64_t max) {
  uint64_t n = 0;
  bool ok = !text.empty();
  for (char c : text) {
    const auto digit = static_cast<uint64_t>(c - '0');
    // n * 10 + digit <= max, without overflow.
    if (c < '0' || c > '9' || digit > max || n > (max - digit) / 10) {
      ok = false;
      break;
    }
    n = n * 10 + digit;
  }
  if (ok && n >= min) return n;
  return InvalidArgument("\"" + std::string(text) +
                         "\" is not a whole number in [" + std::to_string(min) +
                         ", " + std::to_string(max) + "]");
}

std::optional<std::string> Args::Claim(std::string_view name,
                                       bool with_value) {
  std::optional<std::string> found;
  bool repeated = false;
  for (size_t i = 0; i < args_.size(); ++i) {
    std::string_view arg = args_[i];
    if (!arg.starts_with(name)) continue;
    arg.remove_prefix(name.size());
    if (with_value ? !arg.starts_with('=') : !arg.empty()) continue;
    repeated = found.has_value();
    if (repeated && error_.ok()) {
      error_ = InvalidArgument(std::string(name) + " is repeated");
    }
    found = std::string(arg.substr(with_value ? 1 : 0));
    claimed_[i] = true;
  }
  return repeated ? std::nullopt : found;
}

std::vector<std::string> Args::Words() {
  std::vector<std::string> words;
  for (size_t i = 0; i < args_.size(); ++i) {
    if (args_[i].starts_with("--")) continue;
    words.push_back(args_[i]);
    claimed_[i] = true;
  }
  return words;
}

Status Args::Finish() const {
  if (!error_.ok()) return error_;
  for (size_t i = 0; i < args_.size(); ++i) {
    if (!claimed_[i]) return InvalidArgument("unknown argument " + args_[i]);
  }
  return OkStatus();
}

int UsageError(const char* argv0, const Status& why, std::string_view usage) {
  std::fprintf(stderr, "%s: %s\nusage: %s %.*s\n", argv0,
               why.message().c_str(), argv0, static_cast<int>(usage.size()),
               usage.data());
  return 2;
}

int Fail(std::string_view what, const Status& status, int exit_status) {
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(what.size()),
               what.data(), status.ToString().c_str());
  return exit_status;
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return IoError("cannot write " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok ? OkStatus()
                                   : IoError("cannot write " + path);
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("cannot open " + path);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

}  // namespace cffs
