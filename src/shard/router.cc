#include "src/shard/router.h"

#include <algorithm>
#include <map>
#include <utility>

namespace cffs::shard {
namespace {

// On-disk journal record: newline-separated fields, parseable without a
// JSON dependency (paths cannot contain newlines).
//
//   xsj1\n<txid>\n<role>\n<src_shard>\n<dst_shard>\n<src_path>\n<dst_path>\n
struct XRecord {
  uint64_t txid = 0;
  uint32_t src_shard = 0;
  uint32_t dst_shard = 0;
  std::string src_path;
  std::string dst_path;
};

std::string BuildRecord(const XRecord& r, std::string_view role) {
  std::string out = "xsj1\n";
  out += std::to_string(r.txid);
  out += '\n';
  out += role;
  out += '\n';
  out += std::to_string(r.src_shard);
  out += '\n';
  out += std::to_string(r.dst_shard);
  out += '\n';
  out += r.src_path;
  out += '\n';
  out += r.dst_path;
  out += '\n';
  return out;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseRecord(std::span<const uint8_t> data, XRecord* out) {
  std::string_view text(reinterpret_cast<const char*>(data.data()),
                        data.size());
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos <= text.size() && lines.size() < 7) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) break;
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.size() < 7 || lines[0] != "xsj1") return false;
  uint64_t src = 0;
  uint64_t dst = 0;
  if (!ParseU64(lines[1], &out->txid) || !ParseU64(lines[3], &src) ||
      !ParseU64(lines[4], &dst)) {
    return false;
  }
  out->src_shard = static_cast<uint32_t>(src);
  out->dst_shard = static_cast<uint32_t>(dst);
  out->src_path = std::string(lines[5]);
  out->dst_path = std::string(lines[6]);
  return !out->src_path.empty() && !out->dst_path.empty();
}

// Journal file name "t<txid>.<ext>"; ext is one of src|dst|cmt|dat.
bool ParseJournalName(std::string_view name, uint64_t* txid,
                      std::string_view* ext) {
  if (name.size() < 3 || name[0] != 't') return false;
  size_t dot = name.find('.');
  if (dot == std::string_view::npos || dot < 2) return false;
  if (!ParseU64(name.substr(1, dot - 1), txid)) return false;
  *ext = name.substr(dot + 1);
  return *ext == "src" || *ext == "dst" || *ext == "cmt" || *ext == "dat";
}

std::string JournalFile(uint64_t txid, std::string_view ext) {
  std::string p(kJournalDir);
  p += "/t";
  p += std::to_string(txid);
  p += '.';
  p += ext;
  return p;
}

Status IgnoreNotFound(Status s) {
  if (!s.ok() && s.code() == ErrorCode::kNotFound) return OkStatus();
  return s;
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

bool UnderJournalDir(std::string_view normalized) {
  std::string_view dir = kJournalDir;
  return normalized == dir ||
         (normalized.size() > dir.size() &&
          normalized.substr(0, dir.size()) == dir &&
          normalized[dir.size()] == '/');
}

}  // namespace

const char* XStepName(XStep step) {
  switch (step) {
    case XStep::kSrcPrepare: return "src-prepare";
    case XStep::kDstPrepare: return "dst-prepare";
    case XStep::kCommit: return "commit";
    case XStep::kSrcClear: return "src-clear";
    case XStep::kDstClear: return "dst-clear";
  }
  return "?";
}

ShardRouter::ShardRouter(sim::SimConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    sim::FsKind kind, const sim::SimConfig& config) {
  uint32_t shards = config.shards == 0 ? 1 : config.shards;
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter(config));
  router->envs_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    ASSIGN_OR_RETURN(auto env, sim::SimEnv::Create(kind, config));
    // Reserve the journal directory before any client sees the namespace.
    ASSIGN_OR_RETURN(auto ignored, env->path().Mkdir(kJournalDir));
    (void)ignored;
    RETURN_IF_ERROR(env->fs()->Sync());
    router->envs_.push_back(std::move(env));
  }
  return router;
}

uint32_t ShardRouter::OwnerOfDir(std::string_view path) const {
  return ShardForDir(path, static_cast<uint32_t>(envs_.size()));
}

uint32_t ShardRouter::OwnerOfFile(std::string_view path) const {
  return ShardForFile(path, static_cast<uint32_t>(envs_.size()));
}

Status ShardRouter::ValidatePath(std::string_view path) const {
  if (path.empty() || path[0] != '/') {
    return InvalidArgument("path must be absolute");
  }
  if (UnderJournalDir(NormalizeDirPath(path))) {
    return InvalidArgument("reserved journal path");
  }
  return OkStatus();
}

void ShardRouter::ChargeOp(uint32_t shard, uint64_t bytes) {
  envs_[shard]->ChargeCpu(bytes);
}

Status ShardRouter::SkeletonMkdirAll(uint32_t shard, std::string_view dir) {
  std::string norm = NormalizeDirPath(dir);
  if (norm == "/") return OkStatus();
  auto& ops = path_ops(shard);
  std::string prefix;
  for (std::string_view comp : fs::SplitPath(norm)) {
    prefix += '/';
    prefix.append(comp);
    auto made = ops.Mkdir(prefix);
    if (made.ok()) {
      ++stats_.skeleton_mkdirs;
    } else if (made.status().code() != ErrorCode::kExists) {
      return made.status();
    }
  }
  return OkStatus();
}

Status ShardRouter::RemoveSkeleton(uint32_t shard, std::string_view path) {
  auto& ops = path_ops(shard);
  auto ino = ops.Resolve(path);
  if (!ino.ok()) return IgnoreNotFound(ino.status());
  ASSIGN_OR_RETURN(auto entries, ops.fs()->ReadDir(*ino));
  for (const auto& e : entries) {
    if (e.name == "." || e.name == "..") continue;
    if (e.type != fs::FileType::kDirectory) {
      // Non-owner copies of a directory only ever hold mkdir-all ancestor
      // chains (files are created exclusively on their owner shard), so a
      // file here means the namespace invariant broke.
      return Corrupt("file inside skeleton directory: " + e.name);
    }
    std::string child(path);
    child += '/';
    child += e.name;
    RETURN_IF_ERROR(RemoveSkeleton(shard, child));
  }
  return IgnoreNotFound(ops.Rmdir(path));
}

Status ShardRouter::Mkdir(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  std::string norm = NormalizeDirPath(path);
  if (norm == "/") return Exists("/");
  std::string parent = ParentDirPath(norm);
  uint32_t owner = OwnerOfDir(norm);
  uint32_t powner = OwnerOfDir(parent);
  ++stats_.ops;
  // The parent must exist in the global namespace; its real directory lives
  // on its own owner shard.
  if (parent != "/") {
    auto pino = path_ops(powner).Resolve(parent);
    if (!pino.ok()) return pino.status();
    ASSIGN_OR_RETURN(auto attr, path_ops(powner).fs()->GetAttr(*pino));
    if (attr.type != fs::FileType::kDirectory) return NotDirectory(parent);
  }
  ChargeOp(owner);
  RETURN_IF_ERROR(SkeletonMkdirAll(owner, parent));
  auto made = path_ops(owner).Mkdir(norm);
  if (!made.ok()) return made.status();
  if (powner != owner) {
    // Skeleton entry so ReadDir(parent) on the parent's owner lists it.
    RETURN_IF_ERROR(SkeletonMkdirAll(powner, norm));
  }
  return OkStatus();
}

Status ShardRouter::MkdirAll(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  std::string norm = NormalizeDirPath(path);
  if (norm == "/") return OkStatus();
  std::string prefix;
  for (std::string_view comp : fs::SplitPath(norm)) {
    prefix += '/';
    prefix.append(comp);
    Status s = Mkdir(prefix);
    if (!s.ok() && s.code() != ErrorCode::kExists) return s;
  }
  return OkStatus();
}

Status ShardRouter::CreateFile(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  uint32_t shard = OwnerOfFile(path);
  ++stats_.ops;
  ChargeOp(shard);
  auto ino = path_ops(shard).CreateFile(path);
  return ino.status();
}

Status ShardRouter::WriteFile(std::string_view path,
                              std::span<const uint8_t> data) {
  RETURN_IF_ERROR(ValidatePath(path));
  uint32_t shard = OwnerOfFile(path);
  ++stats_.ops;
  ChargeOp(shard, data.size());
  return path_ops(shard).WriteFile(path, data);
}

Result<std::vector<uint8_t>> ShardRouter::ReadFile(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  uint32_t shard = OwnerOfFile(path);
  ++stats_.ops;
  ChargeOp(shard);
  return path_ops(shard).ReadFile(path);
}

Result<fs::Attr> ShardRouter::Stat(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  std::string norm = NormalizeDirPath(path);
  uint32_t fshard = OwnerOfFile(norm);
  ++stats_.ops;
  ASSIGN_OR_RETURN(auto ino, path_ops(fshard).Resolve(norm));
  ASSIGN_OR_RETURN(auto attr, path_ops(fshard).fs()->GetAttr(ino));
  if (attr.type != fs::FileType::kDirectory) return attr;
  // Directories: the copy on owner(parent) may be a skeleton entry; the
  // authoritative attributes live on the directory's own owner shard.
  uint32_t dshard = OwnerOfDir(norm);
  if (dshard == fshard) return attr;
  ASSIGN_OR_RETURN(auto dino, path_ops(dshard).Resolve(norm));
  return path_ops(dshard).fs()->GetAttr(dino);
}

Result<std::vector<fs::DirEntryInfo>> ShardRouter::ReadDir(
    std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  std::string norm = NormalizeDirPath(path);
  uint32_t owner = OwnerOfDir(norm);
  ++stats_.ops;
  ChargeOp(owner);
  ASSIGN_OR_RETURN(auto ino, path_ops(owner).Resolve(norm));
  ASSIGN_OR_RETURN(auto entries, path_ops(owner).fs()->ReadDir(ino));
  std::vector<fs::DirEntryInfo> out;
  out.reserve(entries.size());
  for (auto& e : entries) {
    if (norm == "/" && e.name == kJournalDir.substr(1)) continue;
    out.push_back(std::move(e));
  }
  return out;
}

Status ShardRouter::Unlink(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  uint32_t shard = OwnerOfFile(path);
  ++stats_.ops;
  ChargeOp(shard);
  return path_ops(shard).Unlink(path);
}

Status ShardRouter::Rmdir(std::string_view path) {
  RETURN_IF_ERROR(ValidatePath(path));
  std::string norm = NormalizeDirPath(path);
  if (norm == "/") return InvalidArgument("cannot remove /");
  uint32_t owner = OwnerOfDir(norm);
  uint32_t powner = OwnerOfDir(ParentDirPath(norm));
  ++stats_.ops;
  ChargeOp(owner);
  // Authoritative: the real directory holds every member file and one
  // skeleton entry per live subdirectory, so its emptiness IS namespace
  // emptiness.
  RETURN_IF_ERROR(path_ops(owner).Rmdir(norm));
  if (powner != owner) {
    // The skeleton entry may have accumulated stale mkdir-all ancestor
    // chains from removed descendants; everything under it is provably an
    // empty directory chain now, so remove the subtree.
    RETURN_IF_ERROR(RemoveSkeleton(powner, norm));
  }
  return OkStatus();
}

Status ShardRouter::SyncAll() {
  for (auto& env : envs_) {
    RETURN_IF_ERROR(env->fs()->Sync());
  }
  AdvanceAllTo(MaxClockNs());
  return OkStatus();
}

int64_t ShardRouter::MaxClockNs() const {
  int64_t max_ns = 0;
  for (const auto& env : envs_) {
    max_ns = std::max(max_ns, env->clock().now().nanos());
  }
  return max_ns;
}

void ShardRouter::AdvanceShardTo(uint32_t shard, int64_t ns) {
  envs_[shard]->clock().AdvanceTo(SimTime::Nanos(ns));
}

void ShardRouter::AdvanceAllTo(int64_t ns) {
  for (auto& env : envs_) {
    env->clock().AdvanceTo(SimTime::Nanos(ns));
  }
}

void ShardRouter::EnableTrace(size_t capacity) {
  for (auto& env : envs_) {
    env->EnableTrace(capacity);
  }
}

Status ShardRouter::Recover() {
  std::vector<fs::PathOps*> ops;
  ops.reserve(envs_.size());
  for (auto& env : envs_) ops.push_back(&env->path());
  RETURN_IF_ERROR(JournalRecovery(ops));
  return SyncAll();
}

void ShardRouter::Annotate(uint32_t shard, obs::MetaUpdateKind kind,
                           uint64_t txid, uint64_t role) {
  uint64_t stamp = next_stamp_++;
  obs::TraceRecorder* trace = envs_[shard]->trace();
  if (!trace) return;
  obs::TraceEvent e;
  e.kind = obs::EventKind::kMetaUpdate;
  e.ts_ns = envs_[shard]->clock().now().nanos();
  e.meta = kind;
  e.a = shard;
  e.b = txid;
  e.aux = role;
  e.op_id = stamp;
  trace->Record(e);
}

void ShardRouter::Barrier(uint32_t shard) {
  Annotate(shard, obs::MetaUpdateKind::kShardBarrier, 0, 0);
}

Status ShardRouter::MaybeCrash(XStep step, bool after_sync) {
  if (!crash_armed_ || crash_step_ != step || crash_after_sync_ != after_sync) {
    return OkStatus();
  }
  crash_armed_ = false;
  return IoError(std::string("xtx crash injection at ") + XStepName(step) +
                 (after_sync ? " (after sync)" : " (before sync)"));
}

Status ShardRouter::StepSync(uint32_t shard, XStep step) {
  RETURN_IF_ERROR(MaybeCrash(step, /*after_sync=*/false));
  bool skip_sync =
      mutation_ == "xshard-skip-commit-sync" && step == XStep::kCommit;
  if (!skip_sync) {
    RETURN_IF_ERROR(path_ops(shard).fs()->Sync());
  }
  Barrier(shard);
  return MaybeCrash(step, /*after_sync=*/true);
}

Status ShardRouter::Rename(std::string_view from, std::string_view to) {
  RETURN_IF_ERROR(ValidatePath(from));
  RETURN_IF_ERROR(ValidatePath(to));
  std::string nfrom = NormalizeDirPath(from);
  std::string nto = NormalizeDirPath(to);
  if (nfrom == "/" || nto == "/") return InvalidArgument("rename of /");
  ++stats_.ops;

  uint32_t src_shard = OwnerOfFile(nfrom);
  ASSIGN_OR_RETURN(auto src_ino, path_ops(src_shard).Resolve(nfrom));
  ASSIGN_OR_RETURN(auto src_attr, path_ops(src_shard).fs()->GetAttr(src_ino));
  if (src_attr.type == fs::FileType::kDirectory) {
    // The path is the placement key: renaming a directory would migrate its
    // whole subtree (embedded-inode groups included) between shards.
    return Unsupported("cross-shard namespace does not rename directories");
  }

  uint32_t dst_shard = OwnerOfFile(nto);
  if (src_shard == dst_shard) {
    ChargeOp(src_shard);
    ++stats_.renames_local;
    return path_ops(src_shard).Rename(nfrom, nto);
  }

  // Cross-shard: the destination parent must already exist, and the
  // destination must not (rollback deletes the destination path, which is
  // only safe when this transaction created it).
  std::string dst_parent = ParentDirPath(nto);
  ASSIGN_OR_RETURN(auto dino, path_ops(dst_shard).Resolve(dst_parent));
  ASSIGN_OR_RETURN(auto dattr, path_ops(dst_shard).fs()->GetAttr(dino));
  if (dattr.type != fs::FileType::kDirectory) return NotDirectory(dst_parent);
  auto existing = path_ops(dst_shard).Resolve(nto);
  if (existing.ok()) return Exists(nto);
  if (existing.status().code() != ErrorCode::kNotFound) {
    return existing.status();
  }

  Status s = RenameCross(src_shard, dst_shard, nfrom, nto, src_attr.size);
  if (s.ok()) {
    ++stats_.renames_cross;
  } else {
    ++stats_.renames_failed;
  }
  return s;
}

Status ShardRouter::RenameCross(uint32_t src_shard, uint32_t dst_shard,
                                const std::string& from, const std::string& to,
                                uint64_t src_size_hint) {
  uint64_t txid = next_txid_++;
  XRecord rec;
  rec.txid = txid;
  rec.src_shard = src_shard;
  rec.dst_shard = dst_shard;
  rec.src_path = from;
  rec.dst_path = to;
  const std::string src_rec = JournalFile(txid, "src");
  const std::string dst_rec = JournalFile(txid, "dst");
  const std::string cmt_rec = JournalFile(txid, "cmt");
  const std::string dat = JournalFile(txid, "dat");

  // s1 — src prepare: durable intent on the source shard.
  AdvanceShardTo(src_shard, MaxClockNs());
  ChargeOp(src_shard);
  Annotate(src_shard, obs::MetaUpdateKind::kShardPrepare, txid, 0);
  RETURN_IF_ERROR(
      path_ops(src_shard).WriteFile(src_rec, AsBytes(BuildRecord(rec, "src"))));
  RETURN_IF_ERROR(StepSync(src_shard, XStep::kSrcPrepare));

  // s2 — dst prepare: durable intent plus the staged data copy on the
  // destination shard. The clock handoffs model the RPC serialization: each
  // shard picks up at the other's completion time.
  AdvanceShardTo(src_shard, MaxClockNs());
  ASSIGN_OR_RETURN(auto data, path_ops(src_shard).ReadFile(from));
  AdvanceShardTo(dst_shard, MaxClockNs());
  ChargeOp(dst_shard, src_size_hint);
  Annotate(dst_shard, obs::MetaUpdateKind::kShardPrepare, txid, 1);
  RETURN_IF_ERROR(
      path_ops(dst_shard).WriteFile(dst_rec, AsBytes(BuildRecord(rec, "dst"))));
  RETURN_IF_ERROR(path_ops(dst_shard).WriteFile(dat, data));
  RETURN_IF_ERROR(StepSync(dst_shard, XStep::kDstPrepare));

  bool early_clear = mutation_ == "xshard-early-clear";

  // s4 — src clear: remove the source file and its prepare record. Runs
  // after the commit point; the "xshard-early-clear" mutation hoists it
  // before s3 so the checker's R-XCOMMIT rule can convict the reorder.
  auto src_clear = [&]() -> Status {
    AdvanceShardTo(src_shard, MaxClockNs());
    ChargeOp(src_shard);
    Annotate(src_shard, obs::MetaUpdateKind::kShardClear, txid, 3);
    RETURN_IF_ERROR(path_ops(src_shard).Unlink(from));
    RETURN_IF_ERROR(path_ops(src_shard).Unlink(src_rec));
    return StepSync(src_shard, XStep::kSrcClear);
  };
  // s3 — commit point: once the commit record is durable the rename wins.
  auto commit = [&]() -> Status {
    AdvanceShardTo(dst_shard, MaxClockNs());
    ChargeOp(dst_shard);
    Annotate(dst_shard, obs::MetaUpdateKind::kShardCommit, txid, 2);
    RETURN_IF_ERROR(path_ops(dst_shard).WriteFile(
        cmt_rec, AsBytes(BuildRecord(rec, "cmt"))));
    RETURN_IF_ERROR(path_ops(dst_shard).Rename(dat, to));
    return StepSync(dst_shard, XStep::kCommit);
  };
  if (early_clear) {
    RETURN_IF_ERROR(src_clear());
    RETURN_IF_ERROR(commit());
  } else {
    RETURN_IF_ERROR(commit());
    RETURN_IF_ERROR(src_clear());
  }

  // s5 — dst clear: the transaction is resolved; drop its records.
  AdvanceShardTo(dst_shard, MaxClockNs());
  ChargeOp(dst_shard);
  Annotate(dst_shard, obs::MetaUpdateKind::kShardClear, txid, 4);
  RETURN_IF_ERROR(path_ops(dst_shard).Unlink(cmt_rec));
  RETURN_IF_ERROR(path_ops(dst_shard).Unlink(dst_rec));
  return StepSync(dst_shard, XStep::kDstClear);
}

// --- journal recovery ---

namespace {

struct TxState {
  bool parsed = false;
  XRecord rec;
  bool have_commit = false;
  bool have_dst_side = false;  // a .dst or .cmt file was found (s2 reached)
  bool have_dat = false;
  // (shard, journal path) of every file belonging to this transaction.
  std::vector<std::pair<uint32_t, std::string>> files;
};

}  // namespace

Status JournalRecovery(std::span<fs::PathOps* const> shards) {
  std::map<uint64_t, TxState> txs;
  for (uint32_t i = 0; i < shards.size(); ++i) {
    fs::PathOps& ops = *shards[i];
    auto jdir = ops.Resolve(kJournalDir);
    if (!jdir.ok()) {
      RETURN_IF_ERROR(IgnoreNotFound(jdir.status()));
      continue;
    }
    ASSIGN_OR_RETURN(auto entries, ops.fs()->ReadDir(*jdir));
    for (const auto& e : entries) {
      if (e.name == "." || e.name == "..") continue;
      uint64_t txid = 0;
      std::string_view ext;
      if (!ParseJournalName(e.name, &txid, &ext)) continue;
      TxState& tx = txs[txid];
      std::string jpath(kJournalDir);
      jpath += '/';
      jpath += e.name;
      tx.files.emplace_back(i, jpath);
      if (ext == "dat") {
        tx.have_dat = true;
        tx.have_dst_side = true;
        continue;
      }
      if (ext == "dst" || ext == "cmt") tx.have_dst_side = true;
      auto data = ops.ReadFile(jpath);
      if (!data.ok()) continue;  // torn record: fields from a peer record
      XRecord rec;
      if (!ParseRecord(*data, &rec) || rec.txid != txid ||
          rec.src_shard >= shards.size() || rec.dst_shard >= shards.size()) {
        continue;
      }
      tx.parsed = true;
      tx.rec = rec;
      if (ext == "cmt") tx.have_commit = true;
    }
  }

  for (auto& [txid, tx] : txs) {
    if (tx.parsed && tx.have_commit) {
      // Roll forward: the commit record is durable, so the rename wins —
      // materialize the destination, then clear the source.
      fs::PathOps& dops = *shards[tx.rec.dst_shard];
      fs::PathOps& sops = *shards[tx.rec.src_shard];
      const std::string dat = JournalFile(txid, "dat");
      if (!dops.Resolve(tx.rec.dst_path).ok()) {
        // The destination parent chain was validated before the protocol
        // started, but a crash may have lost a never-synced piece of it.
        auto parent = dops.MkdirAll(ParentDirPath(tx.rec.dst_path));
        RETURN_IF_ERROR(parent.status());
        if (dops.Resolve(dat).ok()) {
          RETURN_IF_ERROR(dops.Rename(dat, tx.rec.dst_path));
        } else {
          // Both the staged copy and the destination are gone; the source
          // is still intact (it is only cleared after the commit synced).
          auto data = sops.ReadFile(tx.rec.src_path);
          if (!data.ok()) {
            return Corrupt("xsj t" + std::to_string(txid) +
                           ": committed but no copy survives");
          }
          RETURN_IF_ERROR(dops.WriteFile(tx.rec.dst_path, *data));
        }
      }
      RETURN_IF_ERROR(IgnoreNotFound(sops.Unlink(tx.rec.src_path)));
    } else if (tx.parsed) {
      // Roll back: no durable commit, so the source keeps the file and
      // every trace of the transaction on the destination is removed.
      fs::PathOps& dops = *shards[tx.rec.dst_shard];
      fs::PathOps& sops = *shards[tx.rec.src_shard];
      const std::string dat = JournalFile(txid, "dat");
      std::vector<uint8_t> staged;
      bool have_staged = false;
      if (auto data = dops.ReadFile(dat); data.ok()) {
        staged = std::move(*data);
        have_staged = true;
      }
      if (tx.have_dst_side) {
        // dst_path, if present, was created by this transaction's partially
        // applied commit step (pre-existing destinations are rejected
        // before s1), so deleting it cannot lose unrelated data.
        RETURN_IF_ERROR(IgnoreNotFound(dops.Unlink(tx.rec.dst_path)));
      }
      if (!sops.Resolve(tx.rec.src_path).ok() && have_staged) {
        // The source file itself was lost in the crash (it may never have
        // been synced); the staged copy from s2 restores it.
        auto parent = sops.MkdirAll(ParentDirPath(tx.rec.src_path));
        RETURN_IF_ERROR(parent.status());
        RETURN_IF_ERROR(sops.WriteFile(tx.rec.src_path, staged));
      }
    }
    // Drop every journal file of the transaction (parseable or torn).
    for (const auto& [shard, jpath] : tx.files) {
      RETURN_IF_ERROR(IgnoreNotFound(shards[shard]->Unlink(jpath)));
    }
  }
  return OkStatus();
}

}  // namespace cffs::shard
