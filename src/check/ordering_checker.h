// Offline metadata write-ordering analyzer.
//
// Replays a recorded trace the way a data-race detector replays a lock
// history: kMetaUpdate events are *annotations* ("a buffered mutation with
// this logical identity landed in cached block H"), kBlockWrite events are
// *commits* ("blocks [a, a+b) reached the platter under commit epoch E").
// An annotation becomes durable when a later commit covers its home block;
// all commands of one scheduler batch share an epoch and are treated as a
// single atomic commit, mirroring the all-or-nothing granularity the crash
// enumerator explores.
//
// With every annotation resolved to a commit epoch, the checker verifies
// the happens-before rules the paper's §3.1 discussion of metadata
// integrity implies:
//
//   R-CREATE  an inode initialization must commit no later than any
//             directory entry naming it (FFS's first ordered synchronous
//             write). Exempt when both land in one epoch, or when the
//             entry names an embedded inode in the same block — the
//             paper's point: name+inode share a sector, so one atomic
//             write replaces two ordered ones.
//   R-REMOVE  a directory entry's removal must commit no later than the
//             free of the inode it named (same operation).
//   R-FREEMAP a free-map bit clear must not commit before the directory
//             entry removal of the same operation.
//   R-GROUP   a grouped data block must not commit ahead of the map
//             update attaching it to its owning inode.
//   R-LOST    every annotation must eventually commit: an update still
//             pending after the run's final sync can never reach the
//             disk (e.g. a bitmap buffer that was mutated but never
//             marked dirty).
//   R-EMBED   an embedded-inode directory entry must be annotated on the
//             same home block as the inode image it embeds.
//
// The checker is deliberately tolerant of truncated history: the recorder
// is a ring buffer, so an inode whose initialization predates the oldest
// retained event is treated as pre-existing rather than misordered, and
// R-LOST is skipped entirely when events were dropped.
#ifndef CFFS_CHECK_ORDERING_CHECKER_H_
#define CFFS_CHECK_ORDERING_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/obs/trace.h"

namespace cffs::check {

enum class RuleId : uint8_t {
  kCreateOrder,   // R-CREATE
  kRemoveOrder,   // R-REMOVE
  kFreeMapOrder,  // R-FREEMAP
  kGroupOrder,    // R-GROUP
  kLostUpdate,    // R-LOST
  kEmbeddedSplit, // R-EMBED
  // Cross-shard rename protocol rules, checked by check::CrossShardChecker
  // (check/xshard.h) over the merged per-shard traces.
  kXPrepareOrder, // R-XPREP
  kXCommitOrder,  // R-XCOMMIT
  kXSrcOrder,     // R-XSRC
  kXDangling,     // R-XDANGLE
};

// Short stable identifier ("R-CREATE", ...) used in reports and tests.
const char* RuleName(RuleId rule);

struct Violation {
  RuleId rule = RuleId::kCreateOrder;
  uint64_t op_id = 0;    // fs operation the late/lost update belongs to
  uint64_t bno = 0;      // home block of the offending annotation
  uint64_t subject = 0;  // inum or block number the rule is about
  std::string detail;    // human-readable explanation
};

struct OrderingReport {
  std::vector<Violation> violations;
  uint64_t events = 0;       // trace events consumed
  uint64_t annotations = 0;  // kMetaUpdate events seen
  uint64_t commits = 0;      // kBlockWrite commands seen
  uint64_t epochs = 0;       // distinct commit epochs observed
  uint64_t dropped = 0;      // ring-buffer drops reported by the recorder
  bool lost_update_checked = true;  // false when dropped > 0

  bool clean() const { return violations.empty(); }
  // Count of violations of one rule (test convenience).
  size_t CountRule(RuleId rule) const;
  // Machine-readable report (schema: cffs-ordercheck-v1).
  std::string ToJson(int indent = 2) const;
};

// A report records at most this many violations (analysis still
// completes). Shared by OrderingChecker and CrossShardChecker.
inline constexpr size_t kMaxViolations = 256;

// Streaming consumer: feed events in recorded order, then Finish() once.
class OrderingChecker {
 public:
  void Consume(const obs::TraceEvent& e);

  // Tell the checker how many events the recorder dropped before the
  // oldest retained one (disables the R-LOST pass when nonzero).
  void NoteDropped(uint64_t dropped);

  // Runs the deferred rule checks and returns the report. Call once.
  OrderingReport Finish();

  // Convenience: run a whole recorded trace through a fresh checker.
  static OrderingReport CheckTrace(const obs::TraceRecorder& trace);

 private:
  // One annotation with its resolved commit epoch (0 = never committed).
  struct Ann {
    obs::MetaUpdateKind meta = obs::MetaUpdateKind::kNone;
    uint64_t home = 0;
    uint64_t subject = 0;
    uint64_t aux = 0;
    uint64_t op_id = 0;
    bool flag = false;
    bool dead = false;  // home block was freed; updates are moot
    uint64_t commit_epoch = 0;
  };
  // R-GROUP obligation: grouped data block committed at data_epoch while
  // its map annotation (index into anns_) was resolved as shown.
  struct GroupCheck {
    size_t ann = 0;
    uint64_t data_epoch = 0;
  };

  void AddViolation(RuleId rule, const Ann& ann, std::string detail);
  void OnMetaUpdate(const obs::TraceEvent& e);
  void OnBlockWrite(const obs::TraceEvent& e);

  OrderingReport report_;
  bool finished_ = false;

  std::vector<Ann> anns_;
  // home block -> indexes of annotations awaiting a commit of that block.
  std::unordered_map<uint64_t, std::vector<size_t>> pending_;
  // grouped data block (bno) -> index of its pending kMapUpdate.
  std::unordered_map<uint64_t, size_t> grouped_pending_;
  // inum -> index of the most recent kInodeInit annotation (R-EMBED).
  std::unordered_map<uint64_t, size_t> last_init_;
  std::vector<GroupCheck> group_checks_;
  uint64_t last_epoch_ = 0;
};

}  // namespace cffs::check

#endif  // CFFS_CHECK_ORDERING_CHECKER_H_
