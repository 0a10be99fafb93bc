#include "src/obs/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace cffs::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

Json& Json::Set(std::string key, Json value) {
  assert(is_object());
  Members& m = std::get<Members>(v_);
  for (Member& kv : m) {
    if (kv.first == key) {
      kv.second = std::move(value);
      return *this;
    }
  }
  m.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& kv : std::get<Members>(v_)) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

Json* Json::FindMutable(std::string_view key) {
  if (!is_object()) return nullptr;
  for (Member& kv : std::get<Members>(v_)) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

void Json::Erase(std::string_view key) {
  if (!is_object()) return;
  std::erase_if(std::get<Members>(v_),
                [key](const Member& kv) { return kv.first == key; });
}

Json& Json::Push(Json value) {
  assert(is_array());
  std::get<Elements>(v_).push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (is_object()) return std::get<Members>(v_).size();
  if (is_array()) return std::get<Elements>(v_).size();
  return 0;
}

namespace {

void AppendNumber(std::string* out, double d) {
  if (!std::isfinite(d)) {  // JSON has no nan/inf
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  *out += buf;
  // Keep a marker so the value re-parses as a double, not an int.
  if (out->find_first_of(".eE", out->size() - std::strlen(buf)) ==
      std::string::npos) {
    *out += ".0";
  }
}

void Newline(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  *out += '\n';
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  if (is_null()) {
    *out += "null";
  } else if (is_bool()) {
    *out += as_bool() ? "true" : "false";
  } else if (is_int()) {
    *out += std::to_string(std::get<int64_t>(v_));
  } else if (is_double()) {
    AppendNumber(out, std::get<double>(v_));
  } else if (is_string()) {
    *out += '"';
    *out += JsonEscape(as_string());
    *out += '"';
  } else if (is_object()) {
    const Members& m = std::get<Members>(v_);
    if (m.empty()) {
      *out += "{}";
      return;
    }
    *out += '{';
    bool first = true;
    for (const Member& kv : m) {
      if (!first) *out += ',';
      first = false;
      Newline(out, indent, depth + 1);
      *out += '"';
      *out += JsonEscape(kv.first);
      *out += indent > 0 ? "\": " : "\":";
      kv.second.DumpTo(out, indent, depth + 1);
    }
    Newline(out, indent, depth);
    *out += '}';
  } else {
    const Elements& e = std::get<Elements>(v_);
    if (e.empty()) {
      *out += "[]";
      return;
    }
    *out += '[';
    bool first = true;
    for (const Json& v : e) {
      if (!first) *out += ',';
      first = false;
      Newline(out, indent, depth + 1);
      v.DumpTo(out, indent, depth + 1);
    }
    Newline(out, indent, depth);
    *out += ']';
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<Json> Document() {
    ASSIGN_OR_RETURN(Json v, Value());
    SkipWs();
    if (pos_ != s_.size()) return Err("trailing characters");
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return InvalidArgument("json: " + what + " at offset " +
                           std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> Value() {
    SkipWs();
    if (pos_ >= s_.size()) return Err("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return ObjectValue();
    if (c == '[') return ArrayValue();
    if (c == '"') {
      ASSIGN_OR_RETURN(std::string str, StringValue());
      return Json(std::move(str));
    }
    if (s_.substr(pos_).starts_with("null")) { pos_ += 4; return Json(); }
    if (s_.substr(pos_).starts_with("true")) { pos_ += 4; return Json(true); }
    if (s_.substr(pos_).starts_with("false")) { pos_ += 5; return Json(false); }
    return NumberValue();
  }

  Result<Json> ObjectValue() {
    ++pos_;  // '{'
    Json obj = Json::Object();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Err("expected key");
      ASSIGN_OR_RETURN(std::string key, StringValue());
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      ASSIGN_OR_RETURN(Json v, Value());
      obj.Set(std::move(key), std::move(v));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  Result<Json> ArrayValue() {
    ++pos_;  // '['
    Json arr = Json::Array();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      ASSIGN_OR_RETURN(Json v, Value());
      arr.Push(std::move(v));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<std::string> StringValue() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Err("bad \\u escape");
          unsigned int code = 0;
          auto [p, ec] = std::from_chars(s_.data() + pos_,
                                         s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || p != s_.data() + pos_ + 4) {
            return Err("bad \\u escape");
          }
          pos_ += 4;
          // Emit as UTF-8 (we only ever produce ASCII escapes; accept BMP).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Err("bad escape");
      }
    }
    return Err("unterminated string");
  }

  Result<Json> NumberValue() {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    const std::string_view tok = s_.substr(start, pos_ - start);
    if (!is_double) {
      int64_t i = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(i);
      // Fall through to double on overflow.
    }
    double d = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      return Err("bad number");
    }
    return Json(d);
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace cffs::obs
