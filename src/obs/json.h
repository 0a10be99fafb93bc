// Minimal JSON document: an ordered DOM builder plus a strict parser.
//
// This is the serialization backbone of the observability layer: metrics
// snapshots, bench reports (BENCH_*.json) and trace-schema tests all go
// through it. It is deliberately tiny — no external dependency, insertion
// order preserved (reports diff cleanly), and a parser just strong enough
// to round-trip what we emit.
#ifndef CFFS_OBS_JSON_H_
#define CFFS_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/status.h"

namespace cffs::obs {

class Json {
 public:
  using Member = std::pair<std::string, Json>;

  Json() : v_(Null{}) {}
  Json(bool b) : v_(b) {}                    // NOLINT(google-explicit-constructor)
  Json(int i) : v_(static_cast<int64_t>(i)) {}          // NOLINT
  Json(unsigned int u) : v_(static_cast<int64_t>(u)) {} // NOLINT
  Json(int64_t i) : v_(i) {}                 // NOLINT
  Json(uint64_t u) : v_(static_cast<int64_t>(u)) {}     // NOLINT
  Json(double d) : v_(d) {}                  // NOLINT
  Json(const char* s) : v_(std::string(s)) {}           // NOLINT
  Json(std::string s) : v_(std::move(s)) {}  // NOLINT

  static Json Object() { Json j; j.v_ = Members{}; return j; }
  static Json Array() { Json j; j.v_ = Elements{}; return j; }

  bool is_null() const { return std::holds_alternative<Null>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_object() const { return std::holds_alternative<Members>(v_); }
  bool is_array() const { return std::holds_alternative<Elements>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  int64_t as_int() const {
    return is_double() ? static_cast<int64_t>(std::get<double>(v_))
                       : std::get<int64_t>(v_);
  }
  double as_double() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(v_))
                    : std::get<double>(v_);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  // Object access. Set replaces an existing key; returns *this for chaining.
  Json& Set(std::string key, Json value);
  const Json* Find(std::string_view key) const;  // nullptr if absent
  Json* FindMutable(std::string_view key);
  void Erase(std::string_view key);  // no-op if absent
  const std::vector<Member>& members() const { return std::get<Members>(v_); }

  // Array access. Push returns *this for chaining.
  Json& Push(Json value);
  size_t size() const;  // members (object) or elements (array)
  const Json& at(size_t i) const { return std::get<Elements>(v_)[i]; }
  const std::vector<Json>& elements() const { return std::get<Elements>(v_); }

  // Serialize. indent == 0 emits one line; indent > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  // Strict parse of a complete document (trailing whitespace allowed).
  static Result<Json> Parse(std::string_view text);

 private:
  struct Null {};
  using Members = std::vector<Member>;
  using Elements = std::vector<Json>;

  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<Null, bool, int64_t, double, std::string, Members, Elements> v_;
};

// Escapes a string for inclusion in a JSON document (no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace cffs::obs

#endif  // CFFS_OBS_JSON_H_
