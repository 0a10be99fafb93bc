#include "src/check/xshard.h"

#include <string>
#include <utility>

namespace cffs::check {

namespace {

constexpr uint64_t kRoleSrcPrepare = 0;
constexpr uint64_t kRoleDstPrepare = 1;
constexpr uint64_t kRoleCommit = 2;
constexpr uint64_t kRoleSrcClear = 3;
constexpr uint64_t kRoleDstClear = 4;

const char* RoleName(uint64_t role) {
  switch (role) {
    case kRoleSrcPrepare: return "src-prepare";
    case kRoleDstPrepare: return "dst-prepare";
    case kRoleCommit: return "commit";
    case kRoleSrcClear: return "src-clear";
    case kRoleDstClear: return "dst-clear";
  }
  return "?";
}

}  // namespace

void CrossShardChecker::NoteDropped(uint64_t dropped) {
  report_.dropped += dropped;
}

void CrossShardChecker::ConsumeShard(uint32_t shard_id,
                                     const std::vector<obs::TraceEvent>& events) {
  // Annotations awaiting a seal on this shard. `synced` flips once a
  // completed Sync fs-op appears after the annotation; the first barrier
  // that follows a synced annotation seals it at the barrier's stamp.
  struct Pending {
    Step step;
    bool synced = false;
  };
  std::vector<Pending> pending;

  for (const obs::TraceEvent& e : events) {
    ++report_.events;
    if (e.kind == obs::EventKind::kFsOp && e.op == obs::FsOp::kSync) {
      for (Pending& p : pending) p.synced = true;
      continue;
    }
    if (e.kind != obs::EventKind::kMetaUpdate ||
        e.meta < obs::MetaUpdateKind::kShardPrepare) {
      continue;
    }
    if (e.meta == obs::MetaUpdateKind::kShardBarrier) {
      // Seal every pending annotation the shard has synced behind. An
      // annotation with no intervening sync stays pending: the barrier is
      // only the router's claim, and a later (honest) barrier may still
      // seal it.
      size_t w = 0;
      for (Pending& p : pending) {
        if (p.synced) {
          p.step.seal_stamp = e.op_id;
          txs_[p.step.txid].steps[p.step.role] = p.step;
        } else {
          pending[w++] = p;
        }
      }
      pending.resize(w);
      continue;
    }
    ++report_.annotations;
    Pending p;
    p.step.shard = shard_id;
    p.step.txid = e.b;
    p.step.role = e.aux;
    p.step.stamp = e.op_id;
    pending.push_back(p);
  }
  // Whatever is still pending was never sealed; record it with seal 0 so
  // the ordering rules flag it (sealed-before is false for seal 0).
  for (const Pending& p : pending) {
    txs_[p.step.txid].steps[p.step.role] = p.step;
  }
}

void CrossShardChecker::AddViolation(RuleId rule, const Step& step,
                                     std::string detail) {
  if (report_.violations.size() >= kMaxViolations) return;
  Violation v;
  v.rule = rule;
  v.op_id = step.stamp;
  v.bno = step.shard;
  v.subject = step.txid;
  v.detail = std::move(detail);
  report_.violations.push_back(std::move(v));
}

bool CrossShardChecker::SealedBefore(const Step& step, uint64_t before_stamp) {
  return step.seal_stamp != 0 && step.seal_stamp < before_stamp;
}

OrderingReport CrossShardChecker::Finish() {
  if (finished_) return report_;
  finished_ = true;

  for (auto& [txid, tx] : txs_) {
    auto find = [&tx](uint64_t role) -> const Step* {
      auto it = tx.steps.find(role);
      return it == tx.steps.end() ? nullptr : &it->second;
    };
    const Step* src_prep = find(kRoleSrcPrepare);
    const Step* dst_prep = find(kRoleDstPrepare);
    const Step* commit = find(kRoleCommit);
    const Step* src_clear = find(kRoleSrcClear);
    const Step* dst_clear = find(kRoleDstClear);

    if (commit != nullptr) {
      // R-XPREP: both intent records durable before the commit point.
      for (const Step* prep : {src_prep, dst_prep}) {
        if (prep == nullptr) continue;  // missing prepare -> R-XDANGLE terrain
        if (!SealedBefore(*prep, commit->stamp)) {
          AddViolation(RuleId::kXPrepareOrder, *prep,
                       std::string(RoleName(prep->role)) +
                           " record not durable before the commit was "
                           "issued: a crash here has a commit with no "
                           "recoverable intent");
        }
      }
      if (src_prep == nullptr || dst_prep == nullptr) {
        AddViolation(RuleId::kXPrepareOrder, *commit,
                     "commit issued without both prepare records");
      }
    }

    if (src_clear != nullptr) {
      // R-XCOMMIT: the commit record must be durable before the source
      // copy (and its prepare record) is destroyed — the only reorder
      // that can lose the file on a crash.
      if (commit == nullptr) {
        AddViolation(RuleId::kXCommitOrder, *src_clear,
                     "source cleared with no commit record in the trace");
      } else if (!SealedBefore(*commit, src_clear->stamp)) {
        AddViolation(RuleId::kXCommitOrder, *commit,
                     "commit record not durable before the source side was "
                     "cleared: a crash between them loses the file on both "
                     "shards");
      }
      // R-XSRC: the clear deletes the record the source side would roll
      // back by, so that record must have been durable first.
      if (src_prep != nullptr && !SealedBefore(*src_prep, src_clear->stamp)) {
        AddViolation(RuleId::kXSrcOrder, *src_prep,
                     "src-prepare record not durable before the source "
                     "side cleared it");
      }
    }

    if (report_.dropped == 0) {
      if (src_prep != nullptr && src_clear == nullptr) {
        AddViolation(RuleId::kXDangling, *src_prep,
                     "src-prepare with no matching src-clear: transaction "
                     "left its journal records behind");
      }
      if (dst_prep != nullptr && dst_clear == nullptr) {
        AddViolation(RuleId::kXDangling, *dst_prep,
                     "dst-prepare with no matching dst-clear: transaction "
                     "left its journal records behind");
      }
    }
  }
  report_.lost_update_checked = report_.dropped == 0;
  return report_;
}

}  // namespace cffs::check
