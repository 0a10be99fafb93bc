#include "src/lint/rules.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "src/util/cli.h"

namespace cffs::lint {

namespace {

constexpr char kRuleDirty[] = "dirty-no-annotation";
constexpr char kRuleStatus[] = "status-discard";
constexpr char kRuleLayering[] = "layering";
constexpr char kRuleOnDisk[] = "ondisk-struct";
constexpr char kOnDiskMarker[] = "cffs-lint: ondisk";

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdentifier; }
bool IsPunct(const Token& t, const char* p) {
  return t.kind == TokKind::kPunct && t.text == p;
}

// A suppression is an adjacent comment `cffs-lint: allow(<rule>): <reason>`;
// the reason is mandatory.
bool AllowedAt(const ParsedFile& f, int line, const std::string& rule) {
  const std::string key = "cffs-lint: allow(" + rule + ")";
  const Comment* c = AdjacentCommentContaining(f.ts.comments, line, key);
  if (c == nullptr) return false;
  size_t pos = c->text.find(key) + key.size();
  while (pos < c->text.size() && (c->text[pos] == ' ' || c->text[pos] == '\t')) {
    ++pos;
  }
  if (pos >= c->text.size() || c->text[pos] != ':') return false;
  ++pos;
  while (pos < c->text.size() &&
         std::isspace(static_cast<unsigned char>(c->text[pos]))) {
    ++pos;
  }
  return pos < c->text.size();
}

// Layer of a path under src/ ("src/fs/common/x.h" -> "fs"), empty otherwise.
std::string LayerOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return {};
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return {};
  return path.substr(4, slash - 4);
}

void RunLayering(const LintConfig& cfg, const ParsedFile& f,
                 std::vector<Finding>* out) {
  const std::string from = LayerOf(f.rel_path);
  if (from.empty()) return;  // tools/, bench/, tests/ are exempt
  const auto it = cfg.layers.find(from);
  if (it == cfg.layers.end()) return;  // layer not under enforcement
  for (const IncludeRef& inc : f.includes) {
    if (inc.angled) continue;
    const std::string to = LayerOf(inc.path);
    if (to.empty() || to == from || to == "util") continue;
    if (std::find(it->second.begin(), it->second.end(), to) !=
        it->second.end()) {
      continue;
    }
    if (AllowedAt(f, inc.line, kRuleLayering)) continue;
    out->push_back({kRuleLayering, f.rel_path, inc.line,
                    "illegal include of \"" + inc.path + "\": layer '" + from +
                        "' may not depend on '" + to + "'",
                    from + " -> " + to});
  }
}

void RunDirty(const LintConfig& cfg, const ParsedFile& f,
              std::vector<Finding>* out) {
  if (cfg.dirty_scope.empty() ||
      f.rel_path.rfind(cfg.dirty_scope, 0) != 0) {
    return;
  }
  const std::vector<Token>& toks = f.ts.tokens;
  for (const FunctionDef& fn : f.functions) {
    std::vector<int> dirty_lines;
    bool annotated = false;
    const size_t end = std::min(fn.body_end, toks.size());
    for (size_t k = fn.body_begin; k + 1 < end; ++k) {
      if (!IsIdent(toks[k]) || !IsPunct(toks[k + 1], "(")) continue;
      if (cfg.dirty_helpers.count(toks[k].text) > 0) {
        dirty_lines.push_back(toks[k].line);
      } else if (cfg.annotators.count(toks[k].text) > 0) {
        annotated = true;
      }
    }
    if (annotated) continue;
    for (int line : dirty_lines) {
      if (AllowedAt(f, line, kRuleDirty)) continue;
      out->push_back({kRuleDirty, f.rel_path, line,
                      "function '" + fn.name +
                          "' dirties metadata without emitting an ordering "
                          "annotation in the same body",
                      fn.name});
    }
  }
}

void RunStatusDiscard(const LintConfig& cfg, const ParsedFile& f,
                      const SymbolTables& sym, std::vector<Finding>* out) {
  (void)cfg;  // the statusy type set already shaped `sym`
  const std::vector<Token>& toks = f.ts.tokens;
  const size_t n = toks.size();

  // Naked statement-level calls of status-only callables inside bodies.
  for (const FunctionDef& fn : f.functions) {
    const size_t end = std::min(fn.body_end, n);
    for (size_t k = fn.body_begin; k + 1 < end; ++k) {
      if (!IsIdent(toks[k]) || !IsPunct(toks[k + 1], "(")) continue;
      // Walk back over `obj.` / `obj->` / `ns::` qualification.
      size_t s = k;
      while (s >= 2 && IsIdent(toks[s - 2]) &&
             (IsPunct(toks[s - 1], "::") || IsPunct(toks[s - 1], ".") ||
              IsPunct(toks[s - 1], "->"))) {
        s -= 2;
      }
      if (s == 0) continue;
      const Token& b = toks[s - 1];
      const bool boundary =
          IsPunct(b, ";") || IsPunct(b, "{") || IsPunct(b, "}") ||
          IsPunct(b, ")") ||
          (IsIdent(b) && (b.text == "else" || b.text == "do"));
      if (!boundary) continue;
      // `(void)Chain(...)` is the cast form, handled below.
      if (IsPunct(b, ")") && s >= 3 && toks[s - 2].text == "void" &&
          IsPunct(toks[s - 3], "(")) {
        continue;
      }
      if (!sym.IsStatusOnly(toks[k].text)) continue;
      const size_t close = MatchForward(toks, k + 1);
      if (close == std::string::npos || close + 1 >= n ||
          !IsPunct(toks[close + 1], ";")) {
        continue;  // result is consumed (.ok(), chained, ...)
      }
      if (AllowedAt(f, toks[k].line, kRuleStatus)) continue;
      out->push_back({kRuleStatus, f.rel_path, toks[k].line,
                      "return value of '" + toks[k].text +
                          "' (Status/Result) is silently discarded",
                      toks[k].text});
    }
  }

  // `(void)` casts that swallow a call need an adjacent justification
  // comment (any comment ending on the same or previous line).
  for (size_t k = 0; k + 2 < n; ++k) {
    if (!IsPunct(toks[k], "(") || toks[k + 1].text != "void" ||
        !IsPunct(toks[k + 2], ")")) {
      continue;
    }
    // Only cast-expressions at statement start — not `f(void)` parameter
    // lists, whose '(' follows an identifier.
    if (k > 0) {
      const Token& b = toks[k - 1];
      const bool stmt_start =
          IsPunct(b, ";") || IsPunct(b, "{") || IsPunct(b, "}") ||
          (IsIdent(b) && (b.text == "else" || b.text == "do"));
      if (!stmt_start) continue;
    }
    bool has_call = false;
    int depth = 0;
    for (size_t m = k + 3; m < n; ++m) {
      if (IsPunct(toks[m], "(")) {
        ++depth;
        has_call = true;
      } else if (IsPunct(toks[m], ")")) {
        --depth;
      } else if (depth == 0 && IsPunct(toks[m], ";")) {
        break;
      }
    }
    if (!has_call) continue;  // e.g. `(void)unused_param;`
    if (HasAdjacentComment(f.ts.comments, toks[k].line)) continue;
    out->push_back({kRuleStatus, f.rel_path, toks[k].line,
                    "`(void)`-discarded call needs an adjacent justification "
                    "comment",
                    "(void)"});
  }
}

// True if the member type spelled by [begin, end) resolves to a fixed-width
// integer (through aliases / enum underlying types / std::array nesting) or
// to another on-disk struct.
bool TypeIsFixedWidth(const std::vector<std::string>& toks, size_t begin,
                      size_t end, const SymbolTables& sym,
                      const std::set<std::string>& ondisk_structs) {
  size_t i = begin;
  while (i < end &&
         (toks[i] == "const" || toks[i] == "std" || toks[i] == "::")) {
    ++i;
  }
  if (i >= end) return false;
  if (toks[i] == "array" && i + 1 < end && toks[i + 1] == "<") {
    const size_t elem = i + 2;
    size_t e = elem;
    int depth = 1;
    while (e < end) {
      if (toks[e] == "<") ++depth;
      else if (toks[e] == ">" && --depth == 0) break;
      else if (toks[e] == "," && depth == 1) break;
      ++e;
    }
    return TypeIsFixedWidth(toks, elem, e, sym, ondisk_structs);
  }
  static const std::set<std::string> kFixed = {
      "int8_t",  "int16_t",  "int32_t",  "int64_t",
      "uint8_t", "uint16_t", "uint32_t", "uint64_t"};
  std::string name = toks[i];
  for (int hops = 0; hops < 8; ++hops) {
    if (kFixed.count(name) > 0) return true;
    if (ondisk_structs.count(name) > 0) return true;
    const auto a = sym.aliases.find(name);
    if (a != sym.aliases.end()) {
      name = a->second;
      continue;
    }
    const auto e2 = sym.enum_bases.find(name);
    if (e2 != sym.enum_bases.end()) {
      name = e2->second;
      continue;
    }
    break;
  }
  return false;
}

void RunOnDisk(const LintConfig& cfg, const ParsedFile& f,
               const SymbolTables& sym, std::vector<Finding>* out) {
  // Structs whose preceding comment carries the ondisk marker. (Spelling
  // the marker out here would attach it to this very struct — see the
  // kOnDiskMarker constant above.)
  struct Marked {
    const StructDef* s;
    std::string pin;
    int marker_line;
  };
  std::vector<Marked> marked;
  std::set<std::string> marked_names;
  for (const Comment& c : f.ts.comments) {
    const size_t pos = c.text.find(kOnDiskMarker);
    if (pos == std::string::npos) continue;
    const StructDef* hit = nullptr;
    for (const StructDef& s : f.structs) {
      if (s.line == c.last_line + 1 || s.line == c.last_line) {
        hit = &s;
        break;
      }
    }
    if (hit == nullptr) {
      out->push_back({kRuleOnDisk, f.rel_path, c.last_line,
                      "`cffs-lint: ondisk` marker is not attached to a "
                      "struct definition",
                      ""});
      continue;
    }
    std::string pin = hit->name;
    const size_t pin_pos = c.text.find("pin=", pos);
    if (pin_pos != std::string::npos) {
      size_t e = pin_pos + 4;
      while (e < c.text.size() &&
             (std::isalnum(static_cast<unsigned char>(c.text[e])) ||
              c.text[e] == '_')) {
        ++e;
      }
      pin = c.text.substr(pin_pos + 4, e - pin_pos - 4);
    }
    marked.push_back({hit, std::move(pin), c.last_line});
    marked_names.insert(hit->name);
  }

  for (const Marked& m : marked) {
    for (const MemberDecl& md : m.s->members) {
      if (TypeIsFixedWidth(md.type_tokens, 0, md.type_tokens.size(), sym,
                           marked_names)) {
        continue;
      }
      if (AllowedAt(f, md.line, kRuleOnDisk)) continue;
      std::string spelled;
      for (const std::string& t : md.type_tokens) {
        if (!spelled.empty() && std::isalnum(static_cast<unsigned char>(t[0]))) {
          spelled += ' ';
        }
        spelled += t;
      }
      out->push_back({kRuleOnDisk, f.rel_path, md.line,
                      "on-disk struct '" + m.s->name + "' member '" + md.name +
                          "' has non-fixed-width type '" + spelled + "'",
                      m.s->name + "." + md.name});
    }
    bool pinned = false;
    for (const StaticAssertDecl& sa : f.static_asserts) {
      if (sa.condition.find(m.pin) != std::string::npos) {
        pinned = true;
        break;
      }
    }
    if (!pinned && !AllowedAt(f, m.s->line, kRuleOnDisk)) {
      out->push_back({kRuleOnDisk, f.rel_path, m.s->line,
                      "on-disk struct '" + m.s->name +
                          "' has no static_assert mentioning its size pin '" +
                          m.pin + "'",
                      m.s->name});
    }
  }

  // Catalog-listed files must carry at least one static_assert.
  for (const std::string& path : cfg.ondisk_files) {
    if (f.rel_path != path) continue;
    if (f.static_asserts.empty()) {
      out->push_back({kRuleOnDisk, f.rel_path, 1,
                      "file is in the on-disk catalog but contains no "
                      "static_assert pinning its format",
                      path});
    }
  }
}

Status ReadStringArray(const obs::Json* j, const char* what,
                       std::vector<std::string>* out) {
  if (j == nullptr) return OkStatus();
  if (!j->is_array()) {
    return InvalidArgument(std::string(what) + ": expected array");
  }
  for (const obs::Json& e : j->elements()) {
    if (!e.is_string()) {
      return InvalidArgument(std::string(what) + ": expected strings");
    }
    out->push_back(e.as_string());
  }
  return OkStatus();
}

Status ReadStringSet(const obs::Json* j, const char* what,
                     std::set<std::string>* out) {
  std::vector<std::string> v;
  RETURN_IF_ERROR(ReadStringArray(j, what, &v));
  out->insert(v.begin(), v.end());
  return OkStatus();
}

}  // namespace

Result<LintConfig> LintConfig::Load(const std::string& json_text) {
  ASSIGN_OR_RETURN(obs::Json j, obs::Json::Parse(json_text));
  if (!j.is_object()) return InvalidArgument("rules: top level not an object");
  const obs::Json* schema = j.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "cffs-lint-rules-v1") {
    return InvalidArgument("rules: missing or unknown schema");
  }
  LintConfig cfg;
  RETURN_IF_ERROR(ReadStringArray(j.Find("paths"), "paths", &cfg.paths));
  RETURN_IF_ERROR(ReadStringArray(j.Find("exclude"), "exclude", &cfg.excludes));
  RETURN_IF_ERROR(ReadStringSet(j.Find("status_types"), "status_types",
                                &cfg.status_types));
  RETURN_IF_ERROR(ReadStringArray(j.Find("ondisk_files"), "ondisk_files",
                                  &cfg.ondisk_files));
  if (const obs::Json* layers = j.Find("layers")) {
    if (!layers->is_object()) return InvalidArgument("layers: not an object");
    for (const auto& [name, deps] : layers->members()) {
      std::vector<std::string> v;
      RETURN_IF_ERROR(ReadStringArray(&deps, name.c_str(), &v));
      cfg.layers[name] = std::move(v);
    }
  }
  if (const obs::Json* dirty = j.Find("dirty")) {
    if (!dirty->is_object()) return InvalidArgument("dirty: not an object");
    if (const obs::Json* scope = dirty->Find("scope")) {
      if (!scope->is_string()) return InvalidArgument("dirty.scope");
      cfg.dirty_scope = scope->as_string();
    }
    RETURN_IF_ERROR(ReadStringSet(dirty->Find("helpers"), "dirty.helpers",
                                  &cfg.dirty_helpers));
    RETURN_IF_ERROR(ReadStringSet(dirty->Find("annotators"),
                                  "dirty.annotators", &cfg.annotators));
  }
  if (const obs::Json* fixtures = j.Find("fixtures")) {
    if (!fixtures->is_object()) {
      return InvalidArgument("fixtures: not an object");
    }
    for (const auto& [rule, path] : fixtures->members()) {
      if (!path.is_string()) return InvalidArgument("fixtures: " + rule);
      cfg.fixtures[rule] = path.as_string();
    }
  }
  return cfg;
}

void AddSource(const LintConfig& cfg, std::string rel_path,
               const std::string& source, LintInput* in) {
  in->files.push_back(ParseSource(std::move(rel_path), source));
  in->symbols.Accumulate(in->files.back(), cfg.status_types);
}

std::vector<Finding> RunRules(const LintConfig& cfg, const LintInput& in) {
  std::vector<Finding> out;
  for (const ParsedFile& f : in.files) {
    RunLayering(cfg, f, &out);
    RunDirty(cfg, f, &out);
    RunStatusDiscard(cfg, f, in.symbols, &out);
    RunOnDisk(cfg, f, in.symbols, &out);
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

Result<std::vector<Finding>> LintTree(const std::string& root,
                                      const LintConfig& cfg,
                                      const std::vector<std::string>& paths,
                                      size_t* files_scanned) {
  namespace stdfs = std::filesystem;
  const std::vector<std::string>& roots = paths.empty() ? cfg.paths : paths;
  std::vector<std::string> rels;
  for (const std::string& p : roots) {
    const stdfs::path base = stdfs::path(root) / p;
    std::error_code ec;
    if (stdfs::is_regular_file(base, ec)) {
      rels.push_back(stdfs::relative(base, root, ec).generic_string());
      continue;
    }
    if (!stdfs::is_directory(base, ec)) {
      return InvalidArgument("lint: no such path: " + base.string());
    }
    for (stdfs::recursive_directory_iterator it(base, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      rels.push_back(stdfs::relative(it->path(), root, ec).generic_string());
    }
  }
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());

  LintInput in;
  size_t scanned = 0;
  for (const std::string& rel : rels) {
    bool excluded = false;
    for (const std::string& ex : cfg.excludes) {
      if (rel.rfind(ex, 0) == 0) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    ASSIGN_OR_RETURN(const std::string text,
                     ReadTextFile((stdfs::path(root) / rel).string()));
    AddSource(cfg, rel, text, &in);
    ++scanned;
  }
  if (files_scanned != nullptr) *files_scanned = scanned;
  return RunRules(cfg, in);
}

Status SelfTest(const std::string& fixtures_root, const LintConfig& cfg) {
  LintConfig fcfg = cfg;
  fcfg.excludes.clear();
  ASSIGN_OR_RETURN(std::vector<Finding> findings,
                   LintTree(fixtures_root, fcfg, {"."}, nullptr));
  std::string errors;
  auto complain = [&errors](const std::string& msg) {
    if (!errors.empty()) errors += "; ";
    errors += msg;
  };
  for (const Finding& f : findings) {
    const auto it = cfg.fixtures.find(f.rule);
    if (it == cfg.fixtures.end() || it->second != f.file) {
      complain("unexpected finding " + f.rule + " at " + f.file + ":" +
               std::to_string(f.line));
    }
  }
  for (const auto& [rule, path] : cfg.fixtures) {
    if (rule == "clean") continue;  // any finding there is caught above
    size_t hits = 0;
    for (const Finding& f : findings) {
      if (f.rule == rule && f.file == path) ++hits;
    }
    if (hits == 0) {
      complain("rule " + rule + " did not convict its fixture " + path);
    }
  }
  if (!errors.empty()) return InvalidArgument("self-test failed: " + errors);
  return OkStatus();
}

obs::Json FindingsToJson(const std::string& root, size_t files_scanned,
                         const std::vector<Finding>& findings) {
  obs::Json arr = obs::Json::Array();
  for (const Finding& f : findings) {
    arr.Push(obs::Json::Object()
                 .Set("rule", f.rule)
                 .Set("file", f.file)
                 .Set("line", static_cast<int64_t>(f.line))
                 .Set("message", f.message)
                 .Set("detail", f.detail));
  }
  return obs::Json::Object()
      .Set("schema", "cffs-lint-v1")
      .Set("root", root)
      .Set("files_scanned", static_cast<int64_t>(files_scanned))
      .Set("findings", std::move(arr));
}

}  // namespace cffs::lint
