// ConfigString and ParseConfig (declared in sim_env.h). VisitKeys is the
// one list of keys; a printer and a parser walk it, and each field type
// has one Parse and one Format overload, so the two cannot drift apart.
#include <algorithm>
#include <charconv>
#include <iterator>
#include <span>
#include <type_traits>
#include <vector>

#include "src/sim/sim_env.h"
#include "src/util/cli.h"

namespace cffs::sim {
namespace {

using Names = std::span<const std::string_view>;  // indexed by enum value
constexpr std::string_view kFsNames[] = {"ffs", "conventional",
                                         "embedded-only", "grouping-only",
                                         "c-ffs"};
constexpr std::string_view kDevices[] = {"spinning", "flash"};
constexpr std::string_view kSchedulers[] = {"fcfs", "clook", "sstf"};
constexpr std::string_view kPolicies[] = {"sync", "delayed"};
const std::pair<std::string_view, disk::DiskSpec (*)()> kDisks[] = {
    {"hp-c3653", disk::HpC3653},
    {"seagate-barracuda", disk::SeagateBarracuda},
    {"quantum-atlas-ii", disk::QuantumAtlasII},
    {"seagate-st31200", disk::SeagateSt31200}};
constexpr std::string_view kTestDisk = "test-";
constexpr std::string_view kPrefetch = "-prefetch";
// Cylinders, heads and sectors per track of a TestDisk.
constexpr uint64_t kMaxTestGeometry[] = {uint64_t{1} << 20, 64, 1024};
// Duration units, smallest first: parsing must try "s", which ends the
// others, last, and printing walks down from the largest.
constexpr std::pair<std::string_view, int64_t> kUnits[] = {
    {"ns", 1}, {"us", 1000}, {"ms", 1000000}, {"s", 1000000000}};
constexpr int64_t kMaxPeriodNs = int64_t{86400} * 1000000000;  // one day

std::string Quoted(std::string_view s) { return "\"" + std::string(s) + "\""; }

// Unsigned integers and booleans, in [min, max].
template <typename T>
Status Parse(std::string_view text, T* out, uint64_t min, uint64_t max) {
  ASSIGN_OR_RETURN(const uint64_t n, ParseUint(text, min, max));
  *out = static_cast<T>(n);
  return OkStatus();
}
template <typename T>
std::string Format(const T& v, uint64_t, uint64_t) {
  return std::to_string(v);
}

// Enums, and the device string.
template <typename E>
Status Parse(std::string_view text, E* out, Names names) {
  const auto it = std::find(names.begin(), names.end(), text);
  if (it == names.end()) {
    std::string all;
    for (std::string_view n : names) all += " " + std::string(n);
    return InvalidArgument("unknown name " + Quoted(text) + ", want" + all);
  }
  if constexpr (std::is_enum_v<E>) {
    *out = static_cast<E>(it - names.begin());
  } else {
    *out = *it;
  }
  return OkStatus();
}
template <typename E>
std::string Format(const E& v, Names names) {
  if constexpr (std::is_enum_v<E>) {
    return std::string(names[static_cast<size_t>(v)]);
  } else {
    return v;
  }
}

Status Parse(std::string_view text, SimTime* out) {
  for (const auto& [suffix, ns] : kUnits) {
    if (!text.ends_with(suffix)) continue;
    text.remove_suffix(suffix.size());
    const auto max = static_cast<uint64_t>(kMaxPeriodNs / ns);
    ASSIGN_OR_RETURN(const uint64_t n, ParseUint(text, 1, max));
    *out = SimTime::Nanos(static_cast<int64_t>(n) * ns);
    return OkStatus();
  }
  return InvalidArgument(Quoted(text) + " is not a number of s, ms, us, ns");
}
// In the largest unit that divides it.
std::string Format(SimTime t) {
  auto u = std::rbegin(kUnits);
  while (t.nanos() % u->second != 0) ++u;
  return std::to_string(t.nanos() / u->second) + std::string(u->first);
}

// The dirty watermark, a fraction in (0, 1].
Status Parse(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, *out);
  if (ec == std::errc() && at == end && *out > 0 && *out <= 1) {
    return OkStatus();
  }
  return InvalidArgument(Quoted(text) + " is not a fraction in (0, 1]");
}
// The shortest text that reads back as exactly `d`.
std::string Format(double d) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), d).ptr);
}

Status Parse(std::string_view text, disk::DiskSpec* out) {
  const size_t at = text.rfind(kPrefetch);
  const std::string_view base = text.substr(0, at);
  const auto named =
      std::find_if(std::begin(kDisks), std::end(kDisks),
                   [&](const auto& d) { return d.first == base; });
  if (named != std::end(kDisks)) {
    *out = named->second();
  } else if (base.starts_with(kTestDisk)) {
    std::string_view geo = base.substr(kTestDisk.size());
    uint32_t g[3];
    for (int i = 0; i < 3; ++i) {
      const size_t x = i < 2 ? geo.find('x') : geo.size();
      if (x == std::string_view::npos) {
        return InvalidArgument(Quoted(base) + " is not test-CxHxS");
      }
      RETURN_IF_ERROR(Parse(geo.substr(0, x), &g[i], 1, kMaxTestGeometry[i]));
      geo.remove_prefix(std::min(x + 1, geo.size()));
    }
    *out = disk::TestDisk(g[0], g[1], g[2]);
  } else {
    return InvalidArgument("unknown disk " + Quoted(base));
  }
  if (at == std::string_view::npos) return OkStatus();
  return Parse(text.substr(at + kPrefetch.size()), &out->prefetch_sectors, 0,
               65536);
}
// The name that parses back into `spec`, or "custom".
std::string Format(const disk::DiskSpec& spec) {
  std::vector<std::string> names;
  for (const auto& d : kDisks) names.emplace_back(d.first);
  if (spec.zones.size() == 1) {
    names.push_back(std::string(kTestDisk) +
                    std::to_string(spec.zones[0].cylinders) + "x" +
                    std::to_string(spec.heads) + "x" +
                    std::to_string(spec.zones[0].sectors_per_track));
  }
  for (std::string name : names) {
    if (spec.prefetch_sectors != disk::DiskSpec().prefetch_sectors) {
      name += std::string(kPrefetch) + std::to_string(spec.prefetch_sectors);
    }
    disk::DiskSpec parsed;
    if (Parse(name, &parsed).ok() && parsed == spec) return name;
  }
  return "custom";
}

// Every key, in ConfigString's order: v(key, field, range or names).
template <typename K, typename C, typename V>
void VisitKeys(K* kind, C* c, V& v) {
  v("fs", kind, kFsNames);
  v("disk", &c->disk_spec);
  v("device", &c->device, kDevices);
  v("cache_blocks", &c->cache_blocks, 16, 1 << 22);  // up to 16 GB
  v("scheduler", &c->scheduler, kSchedulers);
  v("metadata", &c->metadata, kPolicies);
  v("group_blocks", &c->group_blocks, 1, 64);  // as C-FFS formats
  v("blocks_per_cg", &c->blocks_per_cg, 64, 32768);  // one bitmap block
  v("extent_alloc", &c->extent_alloc, 0, 1);
  v("name_caches", &c->name_caches, 0, 1);
  v("syncer", &c->syncer, 0, 1);
  v("syncer_interval", &c->syncer_interval);
  v("syncer_max_age", &c->syncer_max_age);
  v("dirty_high_watermark", &c->dirty_high_watermark);
  v("deterministic_mtime", &c->deterministic_mtime, 0, 1);
  v("shards", &c->shards, 0, kMaxShards);
}

struct Printer {
  std::string out;
  template <typename T, typename... Extra>
  void operator()(std::string_view key, const T* field, const Extra&... x) {
    if (!out.empty()) out += ' ';
    out.append(key).append("=").append(Format(*field, x...));
  }
};

// Applies one key=value token; `status` stays NotFound if no key matches.
struct Parser {
  std::string_view key, value;
  Status status = NotFound();
  template <typename T, typename... Extra>
  void operator()(std::string_view k, T* field, const Extra&... x) {
    if (k == key) status = Parse(value, field, x...);
  }
};

}  // namespace

std::string FsKindName(FsKind kind) { return Format(kind, kFsNames); }

bool KnownDevice(std::string_view device) {
  return std::find(std::begin(kDevices), std::end(kDevices), device) !=
         std::end(kDevices);
}

std::string ConfigString(FsKind kind, const SimConfig& config) {
  Printer p;
  VisitKeys(&kind, &config, p);
  return p.out;
}

Status ParseConfig(std::string_view text, FsKind* kind, SimConfig* config) {
  FsKind k = *kind;
  SimConfig c = *config;
  std::vector<std::string_view> seen;
  while (!text.empty()) {
    const std::string_view token = text.substr(0, text.find(' '));
    text.remove_prefix(std::min(token.size() + 1, text.size()));
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument(Quoted(token) + " is not key=value");
    }
    Parser p{token.substr(0, eq), token.substr(eq + 1)};
    if (std::find(seen.begin(), seen.end(), p.key) != seen.end()) {
      return InvalidArgument("repeated key " + Quoted(p.key));
    }
    seen.push_back(p.key);
    VisitKeys(&k, &c, p);
    if (p.status.code() == ErrorCode::kNotFound) {
      return InvalidArgument("unknown key " + Quoted(p.key));
    }
    if (!p.status.ok()) {
      return InvalidArgument(std::string(p.key) + ": " + p.status.message());
    }
  }
  *kind = k;
  *config = std::move(c);
  return OkStatus();
}

}  // namespace cffs::sim
