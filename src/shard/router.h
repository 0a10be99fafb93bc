// ShardRouter: a thin namespace router in front of M independent file-system
// shards (ROADMAP item 2 — the "millions of users" scale-out step).
//
// Each shard is a complete sim::SimEnv — its own simulated disk, BufferCache,
// IoEngine, deadline Syncer, SpanTracker and clock — so M disks genuinely
// overlap in simulated time: shard clocks advance independently as their own
// operations run, and aggregate elapsed time is the MAX over shard clocks,
// not the sum (a round-robin through one disk would sum). When an operation
// arrives at a shard whose clock is behind the caller's notion of now, the
// router first advances that shard's clock forward (idle time passes on an
// idle disk); clocks never move backwards.
//
// Placement (src/shard/placement.h): directories are the placement unit,
// hashed to a shard with jump consistent hashing; a file always lives on its
// parent directory's shard. C-FFS's explicit grouping packs a directory's
// embedded inodes and small-file data into one on-disk group, so this rule
// keeps every embedded-inode group intact on exactly one shard's disk.
//
// Namespace invariant (the "skeleton directory" scheme): a directory is REAL
// on its owner shard — it holds all member files and one skeleton entry per
// subdirectory — and the owner-side path to it is materialized with
// mkdir-all ancestors. Every public operation on a path therefore resolves
// entirely on one shard:
//
//   ReadDir(d)   -> owner(d): real files + subdirectory skeletons
//   Create(f)    -> owner(parent(f)): the file is born inside the real dir
//   Mkdir(d)     -> owner(d): real dir; owner(parent(d)): skeleton entry
//   Rmdir(d)     -> owner(d): authoritative emptiness check; then the
//                   skeleton entry on owner(parent(d)) is removed — with any
//                   stale mkdir-all ancestor chains beneath it (provably
//                   empty directory chains; see router.cc) removed too.
//
// Directory renames would move a whole subtree between shards (the path is
// the placement key), so they return kUnsupported. Same-shard file renames
// are plain renames. Cross-shard file renames use a two-phase journal
// protocol with prepare/commit records under the reserved "/.xsj" directory
// of both shards (see DESIGN.md §14):
//
//   s1  src shard: write prepare record, sync            [src prepare]
//   s2  dst shard: write prepare record + staged copy
//       of the file data (t<id>.dat), sync               [dst prepare]
//   s3  dst shard: write commit record, rename the
//       staged copy onto the destination path, sync      [commit point]
//   s4  src shard: unlink source + prepare record, sync  [src clear]
//   s5  dst shard: unlink commit + prepare records, sync [dst clear]
//
// Each step syncs one shard before the protocol touches the other, so after
// a crash anywhere the surviving records decide the outcome: a durable
// commit record rolls the rename forward, no commit record rolls it back —
// either way the file exists on exactly one shard (JournalRecovery below;
// crash-enumeration coverage in tests/shard_crash_test.cc). Renaming onto an
// existing destination returns kExists: rollback deletes the destination
// path, which is only safe when this transaction created it.
//
// The router stamps every protocol step into the acting shard's trace as
// kShardPrepare/kShardCommit/kShardClear annotations plus a kShardBarrier
// after each sync, all carrying a single router-wide step counter, so
// check::CrossShardChecker can verify the protocol's happens-before rules
// (R-XPREP/R-XCOMMIT/R-XSRC/R-XDANGLE) from the merged per-shard traces.
#ifndef CFFS_SHARD_ROUTER_H_
#define CFFS_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/common/file_system.h"
#include "src/fs/common/path.h"
#include "src/shard/placement.h"
#include "src/sim/sim_env.h"
#include "src/util/status.h"

namespace cffs::shard {

// Journal directory reserved on every shard; paths under it are rejected by
// the public API.
inline constexpr std::string_view kJournalDir = "/.xsj";

// Protocol steps of a cross-shard rename, in issue order.
enum class XStep : uint8_t {
  kSrcPrepare = 0,
  kDstPrepare,
  kCommit,
  kSrcClear,
  kDstClear,
};

const char* XStepName(XStep step);

// Running totals of router activity (cheap counters, not latencies — the
// per-shard SpanTrackers carry timing).
struct RouterStats {
  uint64_t ops = 0;              // public path operations routed
  uint64_t renames_local = 0;    // same-shard renames
  uint64_t renames_cross = 0;    // two-phase cross-shard renames completed
  uint64_t renames_failed = 0;   // cross-shard renames aborted mid-protocol
  uint64_t skeleton_mkdirs = 0;  // skeleton/ancestor directories created
};

class ShardRouter {
 public:
  // Builds M shards of the given kind, each formatted fresh with `config`
  // (config.shards selects M; 0 means 1). Every shard gets the same
  // disk/cache/syncer configuration — M disks of hardware, not one disk
  // split M ways.
  static Result<std::unique_ptr<ShardRouter>> Create(
      sim::FsKind kind, const sim::SimConfig& config);

  uint32_t shards() const { return static_cast<uint32_t>(envs_.size()); }
  sim::SimEnv* env(uint32_t shard) { return envs_[shard].get(); }
  const RouterStats& stats() const { return stats_; }

  // Owner shard of a path (directories own themselves; files live on their
  // parent's shard).
  uint32_t OwnerOfDir(std::string_view path) const;
  uint32_t OwnerOfFile(std::string_view path) const;

  // --- public namespace API (absolute paths; "/.xsj" is reserved) ---

  Status Mkdir(std::string_view path);
  Status MkdirAll(std::string_view path);
  Status CreateFile(std::string_view path);
  Status WriteFile(std::string_view path, std::span<const uint8_t> data);
  Result<std::vector<uint8_t>> ReadFile(std::string_view path);
  Result<fs::Attr> Stat(std::string_view path);
  Result<std::vector<fs::DirEntryInfo>> ReadDir(std::string_view path);
  Status Unlink(std::string_view path);
  Status Rmdir(std::string_view path);
  // Files only; directories return kUnsupported, an existing destination
  // returns kExists (see the rollback note above).
  Status Rename(std::string_view from, std::string_view to);
  // Syncs every shard and advances all clocks to the common maximum.
  Status SyncAll();

  // --- simulated-time plumbing ---

  // Largest shard clock — the aggregate elapsed time of the sharded run.
  int64_t MaxClockNs() const;
  // Moves one (or every) shard's clock forward to `ns`; never backwards.
  void AdvanceShardTo(uint32_t shard, int64_t ns);
  void AdvanceAllTo(int64_t ns);

  // --- observability ---

  // Enables event tracing on every shard (per-shard ring buffers).
  void EnableTrace(size_t capacity = obs::TraceRecorder::kDefaultCapacity);
  // Runs the cross-shard journal recovery over this router's own shards
  // (the testing entry point is the free function below).
  Status Recover();

  // --- test hooks ---

  // Makes the next cross-shard rename stop with kIoError at `step`: the
  // step's mutations are applied, then the protocol halts either before
  // (after_sync=false) or after (after_sync=true) the step's shard sync.
  // One-shot; cleared when it fires.
  void set_xtx_crash_point(XStep step, bool after_sync) {
    crash_step_ = step;
    crash_after_sync_ = after_sync;
    crash_armed_ = true;
  }
  // Protocol mutations for checker self-tests: "xshard-skip-commit-sync"
  // (emit the commit barrier without the sync behind it) and
  // "xshard-early-clear" (issue the src clear before the commit step).
  // Empty string restores the correct protocol.
  void set_mutation(std::string mutation) { mutation_ = std::move(mutation); }

 private:
  explicit ShardRouter(sim::SimConfig config);

  // Rejects empty/relative paths and anything under kJournalDir.
  Status ValidatePath(std::string_view path) const;
  fs::PathOps& path_ops(uint32_t shard) { return envs_[shard]->path(); }
  // Charges one op's CPU on `shard` (ticks that shard's syncer/sampler).
  void ChargeOp(uint32_t shard, uint64_t bytes = 0);
  // mkdir -p on one shard, counting only directories actually created.
  Status SkeletonMkdirAll(uint32_t shard, std::string_view dir);
  // Recursively removes the (provably stale) skeleton subtree at `path`.
  Status RemoveSkeleton(uint32_t shard, std::string_view path);

  // Trace annotation + barrier emission (no-ops when tracing is off).
  void Annotate(uint32_t shard, obs::MetaUpdateKind kind, uint64_t txid,
                uint64_t role);
  void Barrier(uint32_t shard);
  // Sync + barrier on one shard; the crash hook and the skip-commit-sync
  // mutation intercept here.
  Status StepSync(uint32_t shard, XStep step);
  // Returns kIoError if the armed crash point fires at (step, after_sync).
  Status MaybeCrash(XStep step, bool after_sync);

  Status RenameCross(uint32_t src_shard, uint32_t dst_shard,
                     const std::string& from, const std::string& to,
                     uint64_t src_size_hint);

  sim::SimConfig config_;
  std::vector<std::unique_ptr<sim::SimEnv>> envs_;
  RouterStats stats_;
  uint64_t next_txid_ = 1;
  uint64_t next_stamp_ = 1;  // router-wide step counter for annotations

  bool crash_armed_ = false;
  XStep crash_step_ = XStep::kSrcPrepare;
  bool crash_after_sync_ = false;
  std::string mutation_;
};

// Scans every shard's journal directory and resolves each in-flight
// cross-shard rename: a parseable commit record rolls the transaction
// forward (destination materialized, source removed), anything less rolls it
// back (staged state removed, source kept). Idempotent; tolerant of torn
// records and partially-applied steps. `shards[i]` must be the PathOps of
// shard i, all mounted.
Status JournalRecovery(std::span<fs::PathOps* const> shards);

}  // namespace cffs::shard

#endif  // CFFS_SHARD_ROUTER_H_
