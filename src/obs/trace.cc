#include "src/obs/trace.h"

#include <cassert>
#include <cstdio>

#include "src/obs/json.h"

namespace cffs::obs {

const char* MetaUpdateName(MetaUpdateKind kind) {
  switch (kind) {
    case MetaUpdateKind::kNone: return "none";
    case MetaUpdateKind::kInodeInit: return "inode-init";
    case MetaUpdateKind::kInodeUpdate: return "inode-update";
    case MetaUpdateKind::kInodeFree: return "inode-free";
    case MetaUpdateKind::kDentryAdd: return "dentry-add";
    case MetaUpdateKind::kDentryRemove: return "dentry-remove";
    case MetaUpdateKind::kFreeMapAlloc: return "freemap-alloc";
    case MetaUpdateKind::kFreeMapFree: return "freemap-free";
    case MetaUpdateKind::kMapUpdate: return "map-update";
    case MetaUpdateKind::kInodeMapUpdate: return "inodemap-update";
    case MetaUpdateKind::kResvUpdate: return "resv-update";
    case MetaUpdateKind::kSuperUpdate: return "super-update";
    case MetaUpdateKind::kShardPrepare: return "shard-prepare";
    case MetaUpdateKind::kShardCommit: return "shard-commit";
    case MetaUpdateKind::kShardClear: return "shard-clear";
    case MetaUpdateKind::kShardBarrier: return "shard-barrier";
  }
  return "none";
}

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kLookup: return "lookup";
    case FsOp::kCreate: return "create";
    case FsOp::kRead: return "read";
    case FsOp::kWrite: return "write";
    case FsOp::kSync: return "sync";
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kUnlink: return "unlink";
    case FsOp::kTruncate: return "truncate";
    case FsOp::kRmdir: return "rmdir";
    case FsOp::kLink: return "link";
    case FsOp::kRename: return "rename";
    case FsOp::kOther: return "op";
  }
  return "op";
}

TraceRecorder::TraceRecorder(size_t capacity)
    : ring_(capacity > 0 ? capacity : 1) {}

void TraceRecorder::Record(const TraceEvent& e) {
  if (count_ == ring_.size()) ++dropped_;
  else ++count_;
  ring_[next_] = e;
  next_ = (next_ + 1) % ring_.size();
}

void TraceRecorder::Clear() {
  next_ = 0;
  count_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const size_t first = (next_ + ring_.size() - count_) % ring_.size();
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

namespace {

constexpr int kFsLane = 1;
constexpr int kCacheLane = 2;
constexpr int kDiskLane = 3;
constexpr int kIoLane = 4;

void AppendUs(std::string* out, const char* key, int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.3f", key,
                static_cast<double>(ns) / 1e3);
  *out += buf;
}

// One Chrome trace event object. All names/categories come from fixed
// tables, so no string escaping is needed on this hot path.
void AppendEvent(std::string* out, const TraceEvent& e) {
  if (e.kind == EventKind::kCounterSample) {
    // Telemetry gauges expand into two counter tracks (ph "C"): the cache
    // series renders as stacked areas in perfetto.
    char buf[384];
    const double ts = static_cast<double>(e.ts_ns) / 1e3;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"buffer cache\",\"ph\":\"C\",\"ts\":%.3f,"
                  "\"pid\":1,\"args\":{\"dirty\":%llu,\"clean\":%llu}},"
                  "{\"name\":\"disk util (permille)\",\"ph\":\"C\","
                  "\"ts\":%.3f,\"pid\":1,\"args\":{\"busy\":%lld,"
                  "\"throttle_flushes\":%llu}}",
                  ts, static_cast<unsigned long long>(e.b),
                  static_cast<unsigned long long>(
                      e.aux >= e.b ? e.aux - e.b : 0),
                  ts, static_cast<long long>(e.seek_ns),
                  static_cast<unsigned long long>(e.op_id));
    *out += buf;
    if (e.rotation_ns != 0 || e.transfer_ns != 0) {
      // Multi-tenant gauges (see obs/sampler.h): ready client queue depth
      // and suspended-client count as a third counter track, emitted only
      // when the sample carries them so single-tenant traces are unchanged.
      std::snprintf(buf, sizeof buf,
                    ",{\"name\":\"mt clients\",\"ph\":\"C\",\"ts\":%.3f,"
                    "\"pid\":1,\"args\":{\"ready\":%lld,\"suspended\":%lld}}",
                    ts, static_cast<long long>(e.rotation_ns),
                    static_cast<long long>(e.transfer_ns));
      *out += buf;
    }
    return;
  }
  const char* name = "?";
  const char* cat = "?";
  int tid = kFsLane;
  bool complete = false;  // ph "X" (has dur) vs instant "i"
  switch (e.kind) {
    case EventKind::kFsOp:
      name = FsOpName(e.op);
      cat = "fs";
      tid = kFsLane;
      complete = true;
      break;
    case EventKind::kSyncMetaWrite:
      name = "sync-meta-write";
      cat = "fs";
      tid = kFsLane;
      break;
    case EventKind::kCacheHit:
      name = "cache-hit";
      cat = "cache";
      tid = kCacheLane;
      break;
    case EventKind::kCacheMiss:
      name = "cache-miss";
      cat = "cache";
      tid = kCacheLane;
      break;
    case EventKind::kCacheEvict:
      name = "cache-evict";
      cat = "cache";
      tid = kCacheLane;
      break;
    case EventKind::kDiskIo:
      name = e.flag ? "disk-write" : "disk-read";
      cat = "disk";
      tid = kDiskLane;
      complete = true;
      break;
    case EventKind::kFlashIo:
      name = e.flag ? "flash-write" : "flash-read";
      cat = "disk";
      tid = kDiskLane;
      complete = true;
      break;
    case EventKind::kWriteBatch:
      name = "write-batch";
      cat = "disk";
      tid = kDiskLane;
      break;
    case EventKind::kDentryLookup:
      name = e.flag ? (e.hit ? "dentry-neg-hit" : "dentry-hit")
                    : "dentry-miss";
      cat = "fs";
      tid = kFsLane;
      break;
    case EventKind::kDirIndexBuild:
      name = "dir-index-build";
      cat = "fs";
      tid = kFsLane;
      break;
    case EventKind::kMetaUpdate:
      name = MetaUpdateName(e.meta);
      cat = "order";
      tid = kFsLane;
      break;
    case EventKind::kBlockWrite:
      name = "block-write";
      cat = "order";
      tid = kDiskLane;
      break;
    case EventKind::kSyncerFlush:
      name = "syncer-flush";
      cat = "io";
      tid = kIoLane;
      break;
    case EventKind::kReadaheadStage:
      name = e.flag ? "readahead-group" : "readahead-ramp";
      cat = "io";
      tid = kIoLane;
      break;
    case EventKind::kIoThrottle:
      name = "io-throttle";
      cat = "io";
      tid = kIoLane;
      complete = e.dur_ns > 0;  // the stall duration, once accounted
      break;
    case EventKind::kCounterSample:
      return;  // expanded above
  }

  char head[192];
  if (complete) {
    std::snprintf(head, sizeof head,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{",
                  name, cat, static_cast<double>(e.ts_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, tid);
  } else {
    std::snprintf(head, sizeof head,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{",
                  name, cat, static_cast<double>(e.ts_ns) / 1e3, tid);
  }
  *out += head;

  char args[160];
  switch (e.kind) {
    case EventKind::kFsOp:
      std::snprintf(args, sizeof args, "\"ino\":%llu",
                    static_cast<unsigned long long>(e.a));
      *out += args;
      break;
    case EventKind::kSyncMetaWrite:
    case EventKind::kCacheHit:
    case EventKind::kCacheMiss:
      std::snprintf(args, sizeof args, "\"bno\":%llu",
                    static_cast<unsigned long long>(e.a));
      *out += args;
      break;
    case EventKind::kCacheEvict:
      std::snprintf(args, sizeof args, "\"bno\":%llu,\"dirty\":%s",
                    static_cast<unsigned long long>(e.a),
                    e.flag ? "true" : "false");
      *out += args;
      break;
    case EventKind::kDiskIo:
      std::snprintf(args, sizeof args,
                    "\"lba\":%llu,\"sectors\":%llu,\"cache_hit\":%s,",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b),
                    e.hit ? "true" : "false");
      *out += args;
      AppendUs(out, "seek_us", e.seek_ns);
      *out += ',';
      AppendUs(out, "rotation_us", e.rotation_ns);
      *out += ',';
      AppendUs(out, "transfer_us", e.transfer_ns);
      *out += ',';
      AppendUs(out, "overhead_us", e.overhead_ns);
      break;
    case EventKind::kFlashIo:
      std::snprintf(args, sizeof args, "\"bno\":%llu,\"blocks\":%llu,",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      *out += args;
      AppendUs(out, "wait_us", e.wait_ns);
      *out += ',';
      AppendUs(out, "read_us", e.transfer_ns);
      *out += ',';
      AppendUs(out, "program_us", e.program_ns);
      *out += ',';
      AppendUs(out, "erase_us", e.erase_ns);
      *out += ',';
      AppendUs(out, "overhead_us", e.overhead_ns);
      break;
    case EventKind::kWriteBatch:
      std::snprintf(args, sizeof args, "\"blocks\":%llu,\"commands\":%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      *out += args;
      break;
    case EventKind::kDentryLookup:
      std::snprintf(args, sizeof args, "\"dir\":%llu",
                    static_cast<unsigned long long>(e.a));
      *out += args;
      break;
    case EventKind::kDirIndexBuild:
      std::snprintf(args, sizeof args, "\"dir\":%llu,\"entries\":%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      *out += args;
      break;
    case EventKind::kMetaUpdate:
      std::snprintf(args, sizeof args,
                    "\"bno\":%llu,\"subject\":%llu,\"aux\":%llu,\"op\":%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b),
                    static_cast<unsigned long long>(e.aux),
                    static_cast<unsigned long long>(e.op_id));
      *out += args;
      break;
    case EventKind::kSyncerFlush:
      std::snprintf(args, sizeof args,
                    "\"dirty\":%llu,\"plan\":%llu,\"trigger\":%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b),
                    static_cast<unsigned long long>(e.aux));
      *out += args;
      break;
    case EventKind::kReadaheadStage:
      std::snprintf(args, sizeof args, "\"start_bno\":%llu,\"blocks\":%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b));
      *out += args;
      break;
    case EventKind::kIoThrottle:
      std::snprintf(args, sizeof args, "\"dirty\":%llu",
                    static_cast<unsigned long long>(e.a));
      *out += args;
      break;
    case EventKind::kCounterSample:
      break;  // unreachable (expanded above)
    case EventKind::kBlockWrite:
      std::snprintf(args, sizeof args,
                    "\"bno\":%llu,\"blocks\":%llu,\"epoch\":%llu",
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b),
                    static_cast<unsigned long long>(e.aux));
      *out += args;
      break;
  }
  *out += "}}";
}

void AppendThreadName(std::string* out, int tid, const char* label) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                "\"args\":{\"name\":\"%s\"}}",
                tid, label);
  *out += buf;
}

}  // namespace

std::string TraceRecorder::ToChromeJson() const {
  std::string out;
  out.reserve(count_ * 160 + 512);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  AppendThreadName(&out, kFsLane, "fs ops");
  out += ',';
  AppendThreadName(&out, kCacheLane, "buffer cache");
  out += ',';
  AppendThreadName(&out, kDiskLane, "disk");
  out += ',';
  AppendThreadName(&out, kIoLane, "io engine");
  const size_t first = (next_ + ring_.size() - count_) % ring_.size();
  for (size_t i = 0; i < count_; ++i) {
    out += ',';
    AppendEvent(&out, ring_[(first + i) % ring_.size()]);
  }
  out += "],\"otherData\":{\"dropped_events\":";
  out += std::to_string(dropped_);
  out += "}}";
  return out;
}

namespace {

// The record format stores an event kind and an fs op by their numbers, so
// the version changes whenever EventKind or FsOp is renumbered.
constexpr char kRecordFormat[] = "cffs-trace-v3";

// Record-format field order. Every field is written even when zero so the
// schema stays self-describing; Parse tolerates missing keys (default 0).
Json EventToRecord(const TraceEvent& e) {
  Json rec = Json::Object();
  rec.Set("kind", static_cast<uint64_t>(e.kind));
  rec.Set("ts_ns", e.ts_ns);
  rec.Set("dur_ns", e.dur_ns);
  rec.Set("op", static_cast<uint64_t>(e.op));
  rec.Set("flag", e.flag);
  rec.Set("hit", e.hit);
  rec.Set("a", e.a);
  rec.Set("b", e.b);
  rec.Set("meta", static_cast<uint64_t>(e.meta));
  rec.Set("op_id", e.op_id);
  rec.Set("aux", e.aux);
  rec.Set("seek_ns", e.seek_ns);
  rec.Set("rotation_ns", e.rotation_ns);
  rec.Set("transfer_ns", e.transfer_ns);
  rec.Set("overhead_ns", e.overhead_ns);
  rec.Set("wait_ns", e.wait_ns);
  rec.Set("program_ns", e.program_ns);
  rec.Set("erase_ns", e.erase_ns);
  return rec;
}

int64_t IntField(const Json& rec, std::string_view key) {
  const Json* v = rec.Find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : 0;
}

bool BoolField(const Json& rec, std::string_view key) {
  const Json* v = rec.Find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

Result<TraceEvent> EventFromRecord(const Json& rec) {
  if (!rec.is_object()) return InvalidArgument("trace record is not an object");
  TraceEvent e;
  const int64_t kind = IntField(rec, "kind");
  if (kind < 0 || kind > static_cast<int64_t>(EventKind::kFlashIo)) {
    return InvalidArgument("trace record has unknown event kind " +
                           std::to_string(kind));
  }
  e.kind = static_cast<EventKind>(kind);
  e.ts_ns = IntField(rec, "ts_ns");
  e.dur_ns = IntField(rec, "dur_ns");
  const int64_t op = IntField(rec, "op");
  if (op < 0 || op > static_cast<int64_t>(FsOp::kOther)) {
    return InvalidArgument("trace record has unknown fs op " +
                           std::to_string(op));
  }
  e.op = static_cast<FsOp>(op);
  e.flag = BoolField(rec, "flag");
  e.hit = BoolField(rec, "hit");
  e.a = static_cast<uint64_t>(IntField(rec, "a"));
  e.b = static_cast<uint64_t>(IntField(rec, "b"));
  const int64_t meta = IntField(rec, "meta");
  if (meta < 0 || meta > static_cast<int64_t>(MetaUpdateKind::kShardBarrier)) {
    return InvalidArgument("trace record has unknown meta kind " +
                           std::to_string(meta));
  }
  e.meta = static_cast<MetaUpdateKind>(meta);
  e.op_id = static_cast<uint64_t>(IntField(rec, "op_id"));
  e.aux = static_cast<uint64_t>(IntField(rec, "aux"));
  e.seek_ns = IntField(rec, "seek_ns");
  e.rotation_ns = IntField(rec, "rotation_ns");
  e.transfer_ns = IntField(rec, "transfer_ns");
  e.overhead_ns = IntField(rec, "overhead_ns");
  e.wait_ns = IntField(rec, "wait_ns");
  e.program_ns = IntField(rec, "program_ns");
  e.erase_ns = IntField(rec, "erase_ns");
  return e;
}

}  // namespace

std::string TraceRecorder::ToRecordJson() const {
  Json doc = Json::Object();
  doc.Set("format", kRecordFormat);
  doc.Set("dropped", dropped_);
  Json events = Json::Array();
  const size_t first = (next_ + ring_.size() - count_) % ring_.size();
  for (size_t i = 0; i < count_; ++i) {
    events.Push(EventToRecord(ring_[(first + i) % ring_.size()]));
  }
  doc.Set("events", std::move(events));
  return doc.Dump();
}

Result<TraceRecorder> TraceRecorder::FromRecordJson(std::string_view text) {
  ASSIGN_OR_RETURN(Json doc, Json::Parse(text));
  if (!doc.is_object()) return InvalidArgument("trace dump is not an object");
  const Json* format = doc.Find("format");
  if (format == nullptr || !format->is_string()) {
    return InvalidArgument(std::string("not a ") + kRecordFormat + " dump");
  }
  if (format->as_string() != kRecordFormat) {
    return InvalidArgument("trace dump format " + format->as_string() +
                           " is not " + kRecordFormat +
                           ": event kinds or fs ops are numbered differently");
  }
  const Json* events = doc.Find("events");
  if (events == nullptr || !events->is_array()) {
    return InvalidArgument("trace dump has no events array");
  }
  TraceRecorder rec(events->size() > 0 ? events->size() : 1);
  for (const Json& item : events->elements()) {
    ASSIGN_OR_RETURN(TraceEvent e, EventFromRecord(item));
    rec.Record(e);
  }
  const Json* dropped = doc.Find("dropped");
  if (dropped != nullptr && dropped->is_number()) {
    rec.dropped_ = static_cast<uint64_t>(dropped->as_int());
  }
  return rec;
}

}  // namespace cffs::obs
