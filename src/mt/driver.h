// Multi-tenant workload driver: N logically-concurrent clients multiplexed
// onto M >= 1 actor-style service loops on the simulation clock, one loop
// per SimEnv. A single SimEnv is the M = 1 case; src/shard runs one loop per
// shard.
//
// Concurrency model. Each client owns private directories and an
// independent op stream (a create/read/delete mix with an optional rename
// share, a devtree create-then-read stream, or bulk sequential writes for
// the antagonist). Clients never call into the file system themselves: they
// produce op DESCRIPTORS into per-client submission queues (one ready slot
// per client — the closed loop: a client's next op becomes ready the instant
// its previous op completes). An op queues on the loop that owns its
// directory; each loop picks its next ready client via its own pluggable
// OpScheduler and executes the op as an ordinary synchronous FsBase call.
// Every FsBase and BufferCache is therefore single-threaded BY CONSTRUCTION
// — there is no locking to get wrong and no interleaving finer than one fs
// call — while tail latency still shows the true multi-tenant cost: an op's
// measured latency is queue wait (ready -> service start, time spent behind
// other tenants) plus service time.
//
// M loops. The driver always services the loop whose next service would
// start earliest (ties by lowest loop index): the event-driven schedule of
// M independent servers, so while loop 0's disk seeks, the others service
// their own queues at earlier timestamps. The loops start measuring at one
// common instant. A rename between directories on two loops is charged to
// the source loop and ends when both clocks have passed it.
//
// Backpressure (per loop). When a mutating op pushes its loop's dirty count
// over the syncer's high watermark, or is picked while the loop is above
// it, only the OFFENDING client is suspended, and the driver hands the
// flush to it promptly: on the next iteration the client is resumed and
// serviced first, so the loop's deferred throttle flush runs in the
// client's pre-op boundary window and SpanTracker attributes the whole
// stall to the client's span as throttle_stall (exact per-client
// attribution). If the client's next op waits on another loop, the flush
// runs at this loop's next op boundary, still tagged with the client.
// Deferring the flush further would backfire: the cost is paid either way,
// but meanwhile cache misses evict dirty blocks one at a time — inline
// writeback billed to innocent clients.
//
// Determinism. Per-client xoshiro streams seeded (seed, client id), FIFO
// ties and the loop pick broken by lowest id, and the loops run
// sequentially: same params => the same op order on every loop => (with
// deterministic_mtime) byte-identical disk images.
#ifndef CFFS_MT_DRIVER_H_
#define CFFS_MT_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/common/fs_types.h"
#include "src/mt/mt_stats.h"
#include "src/mt/scheduler.h"
#include "src/sim/sim_env.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cffs::mt {

struct MtParams {
  uint32_t clients = 16;
  uint64_t ops_per_client = 64;
  SchedulerKind scheduler = SchedulerKind::kDrr;
  bool backpressure = true;
  uint64_t seed = 42;

  // Per-client op mix (percent; remainder after create+read+rename is
  // delete). Each op targets one of the client's directories; a rename
  // moves a file into another of them, so it needs dirs_per_client >= 2.
  uint32_t dirs_per_client = 1;
  uint32_t create_pct = 40;
  uint32_t read_pct = 40;
  uint32_t rename_pct = 0;
  uint32_t file_bytes = 1024;     // small-file payload
  uint32_t max_live_files = 32;   // per directory
  uint32_t prepopulate_files = 2; // per directory, before measurement
  // Each client's first `warmup_ops` ops are serviced but not recorded in
  // MtStats: the round after ColdCache is a shared miss storm, and with
  // short streams it would otherwise BE the tail percentiles.
  uint64_t warmup_ops = 0;

  // devtree mode replaces the mix: a create phase populating the
  // directories with log-normal (median 3 KB) files, then a read phase over
  // them — the paper's software-tree shape.
  bool devtree = false;

  // Antagonist tenant: client 0 issues large sequential overwrites into a
  // single big file instead of the small-file mix.
  bool antagonist = false;
  uint32_t antagonist_write_kb = 256;  // per op
  uint32_t antagonist_file_kb = 2048;  // wrap point (bounds the block map)
};

// A client directory as the namespace made it: the loop (env index) that
// owns it, its inode there, and its absolute path.
struct ClientDir {
  uint32_t loop = 0;
  fs::InodeNum ino = 0;
  std::string path;
};

// Where the clients' directories live and how a file moves between them.
// The single-env constructor supplies one "/t<i>" directory per client and
// plain renames; src/shard supplies its router, which mt may not include.
struct Namespace {
  // Creates directory `dir` of client `client` (outside measurement).
  std::function<Result<ClientDir>(uint32_t client, uint32_t dir)> make_dir;
  // Renames a file between two client directories, charging its own CPU.
  std::function<Status(const std::string& from, const std::string& to)>
      rename;
  // If set, runs once after population, before the caches go cold.
  std::function<Status()> populated;
};

class MtDriver {
 public:
  // One loop over `env`; client i's directories are /t<i> (then
  // /t<i>/d<j> for j >= 1).
  MtDriver(sim::SimEnv* env, MtParams params);
  // One loop per env, in env order.
  MtDriver(std::vector<sim::SimEnv*> envs, MtParams params, Namespace ns);
  ~MtDriver();
  MtDriver(const MtDriver&) = delete;
  MtDriver& operator=(const MtDriver&) = delete;

  // Rejects out-of-range params (InvalidArgument), prepopulates the client
  // directories (outside measurement), cold-caches and resets every env,
  // then services every client's op stream to completion and ends with one
  // Sync per env. Call once.
  Status Run();

  const MtStats& stats() const { return stats_; }
  MtStats TakeStats() { return std::move(stats_); }
  // One entry per loop, in env order.
  std::vector<LoopStats> TakeLoopStats() { return std::move(loop_stats_); }

 private:
  enum class OpKind : uint8_t { kCreate, kRead, kDelete, kWrite, kRename };

  struct LiveFile {
    uint32_t name = 0;   // sequence number: the file is "f<name>"
    uint32_t bytes = 0;  // its size, so a read needs no GetAttr
  };

  struct DirSlot : ClientDir {
    explicit DirSlot(ClientDir dir) : ClientDir(std::move(dir)) {}
    std::vector<LiveFile> live;
    uint32_t next_file = 0;
  };

  struct NextOp {
    OpKind kind = OpKind::kCreate;
    uint32_t dir = 0;     // index into Client::dirs
    uint32_t to_dir = 0;  // rename destination dir index
    size_t target = 0;    // index into the dir's live files
    uint32_t bytes = 0;   // create payload size
  };

  struct Client {
    uint64_t id = 0;
    Rng rng{0};
    std::vector<DirSlot> dirs;
    uint64_t ops_left = 0;
    uint64_t done = 0;  // ops serviced so far (warmup exclusion)
    int64_t ready_ns = 0;
    NextOp next;
    fs::InodeNum big_ino = 0;  // antagonist bulk file
    uint64_t big_off = 0;
  };

  struct Loop {
    sim::SimEnv* env = nullptr;
    std::unique_ptr<OpScheduler> scheduler;
    // Min-heap of (ready_ns, client), lazily pruned against the scheduler,
    // so the loop pick costs O(log N) instead of O(N*M).
    std::vector<std::pair<int64_t, uint64_t>> ready;
  };

  // A suspended client owed its loop's throttle flush. At most one is
  // pending: every suspension is handed off on the very next iteration.
  struct Handoff {
    uint32_t loop = 0;
    uint64_t client = 0;
  };

  bool IsAntagonist(const Client& c) const {
    return params_.antagonist && c.id == 0;
  }
  sim::SimEnv* EnvOf(const ClientDir& d) { return loops_[d.loop].env; }

  Status Populate();
  Status CreateFile(DirSlot* d, uint32_t bytes);
  void GenerateNextOp(Client* c);
  void Enqueue(Client* c, int64_t ready_ns);
  // Loop whose next service would start earliest; false if nothing ready.
  bool PickLoop(uint32_t* loop);
  Status ServiceOne(uint32_t loop, uint64_t id);
  Status ExecuteOp(Client* c, int64_t* end_ns);
  void RecordOp(uint32_t loop, const Client& c, OpKind kind, int64_t queue_ns,
                int64_t service_ns);
  bool AboveWatermark(uint32_t loop) const;
  // Backpressure applies: `kind` mutates and the loop is over the watermark.
  bool MustThrottle(uint32_t loop, OpKind kind) const;
  void Suspend(uint32_t loop, const Client& c);
  // Resumes the suspended client and services it first so the deferred
  // flush lands in its span.
  Status HandleThrottleHandoff();
  // Advances every loop clock to the latest one; returns that instant.
  int64_t AlignClocks();
  void Detach();

  std::vector<Loop> loops_;
  MtParams params_;
  Namespace ns_;
  std::vector<Client> clients_;
  // PickNext's suspension mask: all clear, because a suspension never
  // outlives the iteration that hands it off.
  std::vector<uint8_t> none_suspended_;
  std::optional<Handoff> handoff_;
  uint64_t remaining_ = 0;
  std::vector<uint8_t> payload_;
  std::vector<uint8_t> big_payload_;
  MtStats stats_;
  std::vector<LoopStats> loop_stats_;
  bool ran_ = false;
};

}  // namespace cffs::mt

#endif  // CFFS_MT_DRIVER_H_
