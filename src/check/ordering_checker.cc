#include "src/check/ordering_checker.h"

#include <utility>

#include "src/obs/json.h"

namespace cffs::check {

const char* RuleName(RuleId rule) {
  switch (rule) {
    case RuleId::kCreateOrder: return "R-CREATE";
    case RuleId::kRemoveOrder: return "R-REMOVE";
    case RuleId::kFreeMapOrder: return "R-FREEMAP";
    case RuleId::kGroupOrder: return "R-GROUP";
    case RuleId::kLostUpdate: return "R-LOST";
    case RuleId::kEmbeddedSplit: return "R-EMBED";
    case RuleId::kXPrepareOrder: return "R-XPREP";
    case RuleId::kXCommitOrder: return "R-XCOMMIT";
    case RuleId::kXSrcOrder: return "R-XSRC";
    case RuleId::kXDangling: return "R-XDANGLE";
  }
  return "R-?";
}

size_t OrderingReport::CountRule(RuleId rule) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

std::string OrderingReport::ToJson(int indent) const {
  obs::Json doc = obs::Json::Object();
  doc.Set("format", "cffs-ordercheck-v1");
  doc.Set("clean", clean());
  doc.Set("events", events);
  doc.Set("annotations", annotations);
  doc.Set("commits", commits);
  doc.Set("epochs", epochs);
  doc.Set("dropped", dropped);
  doc.Set("lost_update_checked", lost_update_checked);
  obs::Json list = obs::Json::Array();
  for (const Violation& v : violations) {
    obs::Json item = obs::Json::Object();
    item.Set("rule", RuleName(v.rule));
    item.Set("op", v.op_id);
    item.Set("bno", v.bno);
    item.Set("subject", v.subject);
    item.Set("detail", v.detail);
    list.Push(std::move(item));
  }
  doc.Set("violations", std::move(list));
  return doc.Dump(indent);
}

void OrderingChecker::NoteDropped(uint64_t dropped) {
  report_.dropped += dropped;
}

void OrderingChecker::AddViolation(RuleId rule, const Ann& ann,
                                   std::string detail) {
  if (report_.violations.size() >= kMaxViolations) return;
  Violation v;
  v.rule = rule;
  v.op_id = ann.op_id;
  v.bno = ann.home;
  v.subject = ann.subject;
  v.detail = std::move(detail);
  report_.violations.push_back(std::move(v));
}

void OrderingChecker::Consume(const obs::TraceEvent& e) {
  ++report_.events;
  switch (e.kind) {
    case obs::EventKind::kMetaUpdate:
      OnMetaUpdate(e);
      break;
    case obs::EventKind::kBlockWrite:
      OnBlockWrite(e);
      break;
    default:
      break;  // timing/cache events carry no ordering information
  }
}

void OrderingChecker::OnMetaUpdate(const obs::TraceEvent& e) {
  if (e.meta >= obs::MetaUpdateKind::kShardPrepare) {
    // Cross-shard protocol annotations (shard/router.h) have no home block
    // and never commit through a kBlockWrite, so every block-homed rule —
    // R-LOST first among them — would misfire on them. They belong to the
    // cross-shard checker (check/xshard.h), which joins them across the
    // per-shard traces.
    return;
  }
  ++report_.annotations;
  Ann ann;
  ann.meta = e.meta;
  ann.home = e.a;
  ann.subject = e.b;
  ann.aux = e.aux;
  ann.op_id = e.op_id;
  ann.flag = e.flag;
  const size_t idx = anns_.size();

  if (e.meta == obs::MetaUpdateKind::kFreeMapFree) {
    // Block `subject` is being freed: whatever buffered updates were still
    // homed on it can never matter (the buffer is invalidated, the space
    // reused) — exempt them from every rule, R-LOST included.
    auto it = pending_.find(ann.subject);
    if (it != pending_.end()) {
      for (size_t dead_idx : it->second) anns_[dead_idx].dead = true;
      pending_.erase(it);
    }
    grouped_pending_.erase(ann.subject);
  }

  if (e.meta == obs::MetaUpdateKind::kDentryAdd && ann.flag) {
    // R-EMBED: an embedded entry must embed its inode in the same block.
    auto it = last_init_.find(ann.subject);
    if (it == last_init_.end() || anns_[it->second].home != ann.home) {
      AddViolation(RuleId::kEmbeddedSplit, ann,
                   "embedded dentry-add without an inode-init on the same "
                   "directory block");
    }
  }

  if (e.meta == obs::MetaUpdateKind::kMapUpdate && ann.flag) {
    grouped_pending_[ann.aux] = idx;
  }

  anns_.push_back(ann);
  if (e.meta == obs::MetaUpdateKind::kInodeInit) last_init_[ann.subject] = idx;
  pending_[ann.home].push_back(idx);
}

void OrderingChecker::OnBlockWrite(const obs::TraceEvent& e) {
  ++report_.commits;
  if (e.aux != last_epoch_) {
    ++report_.epochs;
    last_epoch_ = e.aux;
  }
  for (uint64_t bno = e.a; bno < e.a + e.b; ++bno) {
    auto it = pending_.find(bno);
    if (it != pending_.end()) {
      for (size_t idx : it->second) anns_[idx].commit_epoch = e.aux;
      pending_.erase(it);
    }
    auto git = grouped_pending_.find(bno);
    if (git != grouped_pending_.end()) {
      group_checks_.push_back(GroupCheck{git->second, e.aux});
      grouped_pending_.erase(git);
    }
  }
}

OrderingReport OrderingChecker::Finish() {
  if (finished_) return report_;
  finished_ = true;

  // Index the annotation history for the deferred edge checks.
  std::unordered_map<uint64_t, std::vector<size_t>> inits_by_inum;
  std::map<std::pair<uint64_t, uint64_t>, size_t> remove_by_inum_op;
  std::unordered_map<uint64_t, std::vector<size_t>> removes_by_op;
  for (size_t i = 0; i < anns_.size(); ++i) {
    const Ann& a = anns_[i];
    if (a.dead) continue;
    switch (a.meta) {
      case obs::MetaUpdateKind::kInodeInit:
        inits_by_inum[a.subject].push_back(i);
        break;
      case obs::MetaUpdateKind::kDentryRemove:
        remove_by_inum_op[{a.subject, a.op_id}] = i;
        removes_by_op[a.op_id].push_back(i);
        break;
      default:
        break;
    }
  }

  // The init annotation a dentry-add depends on: the one from the same
  // operation if there is one (covers the deliberately-misordered create,
  // where the init is annotated after the name), otherwise the most recent
  // init before the add. An inode with no init in the retained history is
  // treated as predating the trace.
  auto FindInit = [&](const Ann& add, size_t add_idx) -> const Ann* {
    auto it = inits_by_inum.find(add.subject);
    if (it == inits_by_inum.end()) return nullptr;
    const Ann* latest_before = nullptr;
    for (size_t idx : it->second) {
      if (anns_[idx].op_id == add.op_id) return &anns_[idx];
      if (idx < add_idx) latest_before = &anns_[idx];
    }
    return latest_before;
  };

  for (size_t i = 0; i < anns_.size(); ++i) {
    const Ann& a = anns_[i];
    if (a.dead || a.commit_epoch == 0) continue;  // lost updates: see below
    switch (a.meta) {
      case obs::MetaUpdateKind::kDentryAdd: {
        if (a.flag || a.subject == 0) break;  // embedded: R-EMBED instead
        const Ann* init = FindInit(a, i);
        if (init == nullptr) break;  // predates the retained trace
        if (init->commit_epoch == 0 || init->commit_epoch > a.commit_epoch) {
          AddViolation(RuleId::kCreateOrder, a,
                       "directory entry committed before the inode it names "
                       "was initialized on disk");
        }
        break;
      }
      case obs::MetaUpdateKind::kInodeFree: {
        auto it = remove_by_inum_op.find({a.subject, a.op_id});
        if (it == remove_by_inum_op.end()) break;  // nameless free
        const Ann& rm = anns_[it->second];
        if (rm.commit_epoch == 0 || rm.commit_epoch > a.commit_epoch) {
          AddViolation(RuleId::kRemoveOrder, a,
                       "inode freed on disk before the directory entry "
                       "naming it was removed");
        }
        break;
      }
      case obs::MetaUpdateKind::kFreeMapFree: {
        auto it = removes_by_op.find(a.op_id);
        if (it == removes_by_op.end()) break;  // truncate-style free
        for (size_t idx : it->second) {
          const Ann& rm = anns_[idx];
          if (rm.commit_epoch == 0 || rm.commit_epoch > a.commit_epoch) {
            AddViolation(RuleId::kFreeMapOrder, a,
                         "free-map bit cleared on disk before the directory "
                         "entry removal of the same operation");
            break;
          }
        }
        break;
      }
      default:
        break;
    }
  }

  for (const GroupCheck& gc : group_checks_) {
    const Ann& map = anns_[gc.ann];
    if (map.dead) continue;
    if (map.commit_epoch == 0 || map.commit_epoch > gc.data_epoch) {
      AddViolation(RuleId::kGroupOrder, map,
                   "grouped data block committed ahead of the map update "
                   "attaching it to its owning inode");
    }
  }

  report_.lost_update_checked = report_.dropped == 0;
  if (report_.lost_update_checked) {
    for (const Ann& a : anns_) {
      if (a.dead || a.commit_epoch != 0) continue;
      AddViolation(RuleId::kLostUpdate, a,
                   std::string("buffered ") + obs::MetaUpdateName(a.meta) +
                       " never committed: the block carrying it was never "
                       "written back");
    }
  }
  return report_;
}

OrderingReport OrderingChecker::CheckTrace(const obs::TraceRecorder& trace) {
  OrderingChecker checker;
  checker.NoteDropped(trace.dropped());
  for (const obs::TraceEvent& e : trace.Events()) checker.Consume(e);
  return checker.Finish();
}

}  // namespace cffs::check
