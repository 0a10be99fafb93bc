// Cross-shard rename protocol checker.
//
// The per-shard OrderingChecker verifies block-level happens-before rules
// inside ONE trace; it cannot see the protocol that spans two shards. The
// ShardRouter therefore stamps every step of a cross-shard rename into the
// acting shard's trace (kShardPrepare / kShardCommit / kShardClear, plus a
// kShardBarrier after each protocol sync), all carrying one router-wide
// step counter in op_id. Block numbers collide across shards (each shard
// is its own disk), so the merged stream can never feed the block-homed
// checker — this one joins the annotations by transaction id instead.
//
// Seal semantics. A protocol step's durability claim is only believable if
// the shard actually synced: an annotation is SEALED by the first later
// kShardBarrier on the same shard with a completed Sync fs-op event
// between them (the barrier alone is just the router's say-so — the
// skip-commit-sync mutation emits it without the sync behind it, and the
// missing kSync event is what convicts). Within one shard, trace order is
// causal order; across shards, only the router stamps are comparable (the
// router issues protocol steps sequentially, so its counter is a valid
// global order for the steps themselves).
//
// Rules (per transaction, in router-stamp order):
//   R-XPREP    both prepares (src role 0, dst role 1) must exist and be
//              sealed before the commit is issued — otherwise a crash
//              between them leaves a commit with no durable intent record
//              to recover by.
//   R-XCOMMIT  the commit must exist and be sealed before the src clear is
//              issued — clearing the source while the commit could still
//              be lost is the one reorder that can lose the file entirely.
//   R-XSRC     the src prepare must be sealed before the src clear is
//              issued (the clear deletes the record the src side would
//              otherwise roll back by).
//   R-XDANGLE  every prepare must be followed by the matching clear (src
//              prepare -> src clear, dst prepare -> dst clear): an
//              unfinished transaction left its journal records behind.
//              Skipped when any shard's trace dropped events.
#ifndef CFFS_CHECK_XSHARD_H_
#define CFFS_CHECK_XSHARD_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/check/ordering_checker.h"
#include "src/obs/trace.h"

namespace cffs::check {

class CrossShardChecker {
 public:
  // Feed one shard's recorded events, in recorded order. Call once per
  // shard (any shard order; cross-shard ordering comes from the stamps).
  void ConsumeShard(uint32_t shard_id, const std::vector<obs::TraceEvent>& events);
  void NoteDropped(uint64_t dropped);

  // Runs the rules and returns the report (violations carry the
  // transaction id in `subject` and the shard id in `bno`). Call once.
  OrderingReport Finish();

 private:
  // One protocol annotation: (txid, role) at a router stamp, plus the
  // stamp of the barrier that sealed it (0 = never sealed).
  struct Step {
    uint32_t shard = 0;
    uint64_t txid = 0;
    uint64_t role = 0;   // 0 src-prep, 1 dst-prep, 2 commit, 3/4 clears
    uint64_t stamp = 0;
    uint64_t seal_stamp = 0;
  };
  struct Tx {
    // Steps by role; protocol issues each role at most once per txid.
    std::map<uint64_t, Step> steps;
  };

  void AddViolation(RuleId rule, const Step& step, std::string detail);
  // True when `step` is sealed at a stamp strictly before `before_stamp`.
  static bool SealedBefore(const Step& step, uint64_t before_stamp);

  OrderingReport report_;
  std::map<uint64_t, Tx> txs_;
  bool finished_ = false;
};

}  // namespace cffs::check

#endif  // CFFS_CHECK_XSHARD_H_
