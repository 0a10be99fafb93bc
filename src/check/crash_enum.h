// Systematic crash-state enumeration.
//
// The original crash harness (SimEnv::CrashAndRemount) models exactly one
// crash: every pending dirty block is lost at once. A real power failure
// is messier — the write-back queue is partially drained, and because the
// scheduler reorders writes for seek efficiency, the drained part is not
// even a prefix of the dirty list. This enumerator explores that space
// deliberately:
//
//   * prefixes of the scheduler's service order (the "legal" crash points
//     a drained queue passes through),
//   * all-but-one images (exactly one pending write missing),
//   * seeded random subsets (illegal reorderings: the disk acknowledged
//     writes out of order, the pathological case ordered updates guard
//     against).
//
// Each selected subset is materialized on a CLONE of the simulated disk
// (the live environment is never disturbed), the clone is mounted as a
// machine of the live one's config (sim::SimEnv::Open), and fsck runs
// twice: once read-only to classify the damage, once with repair, after
// which the image must verify clean.
// Under the synchronous-metadata discipline every enumerated state must
// be repairable — that is the paper's §3 integrity claim, and the crash
// tests assert it over both file systems and both metadata policies.
#ifndef CFFS_CHECK_CRASH_ENUM_H_
#define CFFS_CHECK_CRASH_ENUM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/sim_env.h"
#include "src/util/status.h"

namespace cffs::check {

struct CrashEnumOptions {
  // Cap on prefix states (the full drain and the empty drain always run).
  size_t max_prefixes = 24;
  // Cap on all-but-one states.
  size_t max_dropouts = 16;
  // Seeded random subsets to try on top of the structured states.
  size_t max_subsets = 32;
  uint64_t seed = 1;
  // Quick mode for sanitizer CI: a handful of states of each shape.
  bool quick = false;
  // Enumerate the blocks the NEXT syncer flush epoch would write — the
  // cache's flush plan (clean gap-fillers included), in the device
  // scheduler's service order from the real head position — instead of the
  // raw dirty set from head 0. This is the crash surface of a
  // syncer-generated write-back queue: a power cut mid-epoch leaves some
  // prefix of exactly this sequence on the platter.
  bool syncer_plan = false;
  // Extra semantic predicate run on each crash image after fsck's repair
  // converges.
  // fsck only knows structural invariants; callers with a protocol on top
  // — e.g. the cross-shard rename journal, which must roll a transaction
  // forward or back, never both — use this to assert the protocol-level
  // postcondition. A returned error counts as a repair failure.
  std::function<Status(fs::FileSystem*)> post_repair_check;
};

struct CrashEnumReport {
  uint64_t dirty_blocks = 0;    // pending queue size at enumeration time
  uint64_t states = 0;          // crash images explored
  uint64_t unclean_images = 0;  // read-only fsck found problems
  uint64_t unmountable = 0;     // the image would not even mount
  uint64_t repair_failures = 0; // repair did not produce a clean image
  std::vector<std::string> failures;  // one line per failed state

  // Every explored state was recoverable (mountable and repairable).
  bool all_recoverable() const {
    return unmountable == 0 && repair_failures == 0;
  }
  std::string ToJson(int indent = 2) const;
};

class CrashStateEnumerator {
 public:
  // `env` is inspected but never modified: its dirty queue and disk
  // contents are copied. It must stay alive for the duration of Run().
  CrashStateEnumerator(sim::SimEnv* env, CrashEnumOptions options = {});

  Result<CrashEnumReport> Run();

 private:
  // Applies dirty blocks chosen by `selected` to a fresh clone of the
  // live disk and checks the resulting crash image.
  Status ExploreState(const std::vector<cache::BufferCache::DirtyBlock>& dirty,
                      const std::vector<bool>& selected,
                      const std::string& label, CrashEnumReport* report);

  sim::SimEnv* env_;
  CrashEnumOptions options_;
};

}  // namespace cffs::check

#endif  // CFFS_CHECK_CRASH_ENUM_H_
