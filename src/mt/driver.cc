#include "src/mt/driver.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

namespace cffs::mt {

namespace {

std::string FileName(uint32_t n) { return "f" + std::to_string(n); }

// The leading share of each devtree client's ops that create.
constexpr uint32_t kDevtreeCreatePct = 50;

// devtree sources: log-normal, median 3 KB, capped at 64 KB (the shape
// workload/devtree.cc uses for the single-disk tree).
uint32_t DevTreeSize(Rng* rng) {
  const double b = rng->NextLogNormal(std::log(3072.0), 1.0);
  return static_cast<uint32_t>(std::clamp(b, 256.0, 65536.0));
}

Status CheckParams(const MtParams& p) {
  if (p.clients == 0) return InvalidArgument("mt: clients must be >= 1");
  if (p.dirs_per_client == 0) {
    return InvalidArgument("mt: dirs_per_client must be >= 1");
  }
  if (uint64_t{p.create_pct} + p.read_pct + p.rename_pct > 100) {
    return InvalidArgument("mt: create_pct + read_pct + rename_pct > 100");
  }
  if (p.rename_pct > 0 && p.dirs_per_client < 2) {
    return InvalidArgument("mt: rename_pct needs dirs_per_client >= 2");
  }
  return OkStatus();
}

Namespace SingleEnvNamespace(sim::SimEnv* env) {
  Namespace ns;
  ns.make_dir = [env](uint32_t client, uint32_t dir) -> Result<ClientDir> {
    ClientDir d;
    d.path = "/t" + std::to_string(client);
    if (dir > 0) d.path += "/d" + std::to_string(dir);
    env->ChargeCpu();
    ASSIGN_OR_RETURN(d.ino, env->path().MkdirAll(d.path));
    return d;
  };
  ns.rename = [env](const std::string& from, const std::string& to) {
    env->ChargeCpu();
    return env->path().Rename(from, to);
  };
  return ns;
}

}  // namespace

MtDriver::MtDriver(sim::SimEnv* env, MtParams params)
    : MtDriver(std::vector<sim::SimEnv*>{env}, params,
               SingleEnvNamespace(env)) {}

MtDriver::MtDriver(std::vector<sim::SimEnv*> envs, MtParams params,
                   Namespace ns)
    : params_(params), ns_(std::move(ns)) {
  loops_.resize(envs.size());
  loop_stats_.resize(envs.size());
  for (uint32_t s = 0; s < envs.size(); ++s) {
    loops_[s].env = envs[s];
    loops_[s].scheduler = MakeScheduler(params_.scheduler, params_.clients);
    loop_stats_[s].shard_id = s;
  }
  clients_.resize(params_.clients);
  none_suspended_.assign(params_.clients, 0);
}

MtDriver::~MtDriver() { Detach(); }

void MtDriver::Detach() {
  for (Loop& loop : loops_) {
    loop.env->set_sample_hook(nullptr);
    if (loop.env->syncer() != nullptr) {
      loop.env->syncer()->set_deferred_throttle(false);
    }
    loop.env->spans()->set_client_id(0);
  }
}

int64_t MtDriver::AlignClocks() {
  int64_t now = 0;
  for (const Loop& loop : loops_) {
    now = std::max(now, loop.env->clock().now().nanos());
  }
  for (Loop& loop : loops_) loop.env->clock().AdvanceTo(SimTime::Nanos(now));
  return now;
}

Status MtDriver::CreateFile(DirSlot* d, uint32_t bytes) {
  sim::SimEnv* env = EnvOf(*d);
  env->ChargeCpu();
  ASSIGN_OR_RETURN(fs::InodeNum ino,
                   env->fs()->Create(d->ino, FileName(d->next_file)));
  env->ChargeCpu(bytes);
  ASSIGN_OR_RETURN(
      uint64_t n,
      env->fs()->Write(ino, 0,
                       std::span<const uint8_t>(payload_.data(), bytes)));
  (void)n;
  d->live.push_back({d->next_file++, bytes});
  return OkStatus();
}

Status MtDriver::Populate() {
  payload_.assign(
      params_.devtree ? 65536u : std::max<uint32_t>(params_.file_bytes, 1),
      0xC5);
  if (params_.antagonist) {
    big_payload_.assign(
        static_cast<size_t>(params_.antagonist_write_kb) * 1024, 0x5C);
  }
  for (uint32_t i = 0; i < params_.clients; ++i) {
    Client& c = clients_[i];
    c.id = i;
    // splitmix64 seeding decorrelates nearby (seed, id) pairs.
    c.rng.Seed(params_.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    c.ops_left = params_.ops_per_client;
    for (uint32_t j = 0; j < params_.dirs_per_client; ++j) {
      ASSIGN_OR_RETURN(ClientDir made, ns_.make_dir(i, j));
      DirSlot& d = c.dirs.emplace_back(std::move(made));
      if (IsAntagonist(c) || params_.devtree) continue;
      for (uint32_t f = 0; f < params_.prepopulate_files; ++f) {
        RETURN_IF_ERROR(CreateFile(&d, params_.file_bytes));
      }
    }
    if (IsAntagonist(c)) {
      // One bounded bulk file, fully materialized so every antagonist op
      // is an overwrite (the block map never deepens mid-measurement).
      sim::SimEnv* env = EnvOf(c.dirs[0]);
      env->ChargeCpu();
      ASSIGN_OR_RETURN(c.big_ino, env->fs()->Create(c.dirs[0].ino, "big"));
      const size_t file_bytes =
          static_cast<size_t>(params_.antagonist_file_kb) * 1024;
      std::vector<uint8_t> fill(file_bytes, 0x5C);
      env->ChargeCpu(file_bytes);
      ASSIGN_OR_RETURN(uint64_t n, env->fs()->Write(c.big_ino, 0, fill));
      (void)n;
    }
  }
  return ns_.populated ? ns_.populated() : OkStatus();
}

void MtDriver::GenerateNextOp(Client* c) {
  NextOp op;
  if (IsAntagonist(*c)) {
    op.kind = OpKind::kWrite;
    c->next = op;
    return;
  }
  // One draw picks the directory. A lone directory costs none, so a
  // one-directory client keeps the op stream its seed has always drawn.
  if (c->dirs.size() > 1) {
    op.dir = static_cast<uint32_t>(c->rng.Below(c->dirs.size()));
  }
  if (params_.devtree) {
    const uint64_t issued = params_.ops_per_client - c->ops_left;
    const bool create_phase =
        issued * 100 < params_.ops_per_client * kDevtreeCreatePct;
    if (!create_phase && c->dirs[op.dir].live.empty()) {
      // The read phase can land on an empty dir: read the first populated
      // one instead, else create.
      for (uint32_t j = 0; j < c->dirs.size(); ++j) {
        if (!c->dirs[j].live.empty()) {
          op.dir = j;
          break;
        }
      }
    }
    const std::vector<LiveFile>& live = c->dirs[op.dir].live;
    if (create_phase || live.empty()) {
      op.kind = OpKind::kCreate;
      op.bytes = DevTreeSize(&c->rng);
    } else {
      op.kind = OpKind::kRead;
      op.target = static_cast<size_t>(c->rng.Below(live.size()));
    }
    c->next = op;
    return;
  }

  const uint64_t roll = c->rng.Below(100);
  const std::vector<LiveFile>& live = c->dirs[op.dir].live;
  if (roll < params_.create_pct) {
    op.kind = OpKind::kCreate;
  } else if (roll < params_.create_pct + params_.read_pct) {
    op.kind = OpKind::kRead;
  } else if (roll < params_.create_pct + params_.read_pct +
                        params_.rename_pct) {
    op.kind = OpKind::kRename;
  } else {
    op.kind = OpKind::kDelete;
  }
  if (live.empty()) {
    op.kind = OpKind::kCreate;
  } else if (op.kind == OpKind::kCreate &&
             live.size() >= params_.max_live_files) {
    op.kind = OpKind::kDelete;
  }
  if (op.kind != OpKind::kCreate) {
    op.target = static_cast<size_t>(c->rng.Below(live.size()));
  }
  if (op.kind == OpKind::kRename) {
    op.to_dir = static_cast<uint32_t>(c->rng.Below(c->dirs.size() - 1));
    if (op.to_dir >= op.dir) ++op.to_dir;  // any dir but the source
  }
  op.bytes = params_.file_bytes;
  c->next = op;
}

Status MtDriver::ExecuteOp(Client* c, int64_t* end_ns) {
  const NextOp& op = c->next;
  DirSlot& d = c->dirs[op.dir];
  sim::SimEnv* env = EnvOf(d);
  fs::FileSystem* fs = env->fs();
  switch (op.kind) {
    case OpKind::kCreate:
      RETURN_IF_ERROR(CreateFile(&d, op.bytes));
      break;
    case OpKind::kRead: {
      const LiveFile f = d.live[op.target];
      env->ChargeCpu();
      ASSIGN_OR_RETURN(fs::InodeNum ino, fs->Lookup(d.ino, FileName(f.name)));
      env->ChargeCpu(f.bytes);
      std::vector<uint8_t> buf(f.bytes);
      ASSIGN_OR_RETURN(uint64_t n, fs->Read(ino, 0, buf));
      (void)n;
      break;
    }
    case OpKind::kDelete:
      env->ChargeCpu();
      RETURN_IF_ERROR(fs->Unlink(d.ino, FileName(d.live[op.target].name)));
      d.live[op.target] = d.live.back();
      d.live.pop_back();
      break;
    case OpKind::kRename: {
      // The namespace charges the CPU itself (on both loops when the dirs
      // sit on two).
      DirSlot& t = c->dirs[op.to_dir];
      const LiveFile f = d.live[op.target];
      RETURN_IF_ERROR(ns_.rename(d.path + "/" + FileName(f.name),
                                 t.path + "/" + FileName(t.next_file)));
      d.live[op.target] = d.live.back();
      d.live.pop_back();
      t.live.push_back({t.next_file++, f.bytes});
      if (t.loop != d.loop) {
        ++loop_stats_[t.loop].renames_in;
        *end_ns = std::max(env->clock().now().nanos(),
                           EnvOf(t)->clock().now().nanos());
        return OkStatus();
      }
      break;
    }
    case OpKind::kWrite: {
      env->ChargeCpu(big_payload_.size());
      ASSIGN_OR_RETURN(uint64_t n,
                       fs->Write(c->big_ino, c->big_off, big_payload_));
      (void)n;
      c->big_off += big_payload_.size();
      if (c->big_off + big_payload_.size() >
          static_cast<uint64_t>(params_.antagonist_file_kb) * 1024) {
        c->big_off = 0;
      }
      break;
    }
  }
  *end_ns = env->clock().now().nanos();
  return OkStatus();
}

void MtDriver::RecordOp(uint32_t loop, const Client& c, OpKind kind,
                        int64_t queue_ns, int64_t service_ns) {
  const SimTime full = SimTime::Nanos(queue_ns + service_ns);
  MtClientStats& cs = stats_.per_client[c.id];
  ++cs.ops;
  cs.service_ns += service_ns;
  cs.queue_wait_ns += queue_ns;
  cs.latency.Record(full);
  ++stats_.ops_serviced;
  stats_.service_ns += service_ns;
  stats_.queue_wait_ns += queue_ns;
  stats_.latency.Record(full);
  stats_.queue_wait.Record(SimTime::Nanos(queue_ns));
  switch (kind) {
    case OpKind::kCreate:
      ++cs.creates;
      stats_.create_latency.Record(full);
      break;
    case OpKind::kRead:
      ++cs.reads;
      stats_.read_latency.Record(full);
      break;
    case OpKind::kDelete:
      ++cs.deletes;
      stats_.delete_latency.Record(full);
      break;
    case OpKind::kWrite:
      ++cs.writes;
      stats_.write_latency.Record(full);
      break;
    case OpKind::kRename:
      ++cs.renames;
      stats_.rename_latency.Record(full);
      break;
  }
  LoopStats& ls = loop_stats_[loop];
  ++ls.ops;
  ls.service_ns += service_ns;
  ls.queue_wait_ns += queue_ns;
  ls.latency.Record(full);
}

void MtDriver::Enqueue(Client* c, int64_t ready_ns) {
  Loop& loop = loops_[c->dirs[c->next.dir].loop];
  c->ready_ns = ready_ns;
  loop.scheduler->Enqueue(c->id, ready_ns);
  loop.ready.emplace_back(ready_ns, c->id);
  std::push_heap(loop.ready.begin(), loop.ready.end(), std::greater<>{});
  stats_.max_ready =
      std::max<uint64_t>(stats_.max_ready, loop.scheduler->ready_count());
}

bool MtDriver::PickLoop(uint32_t* picked) {
  bool found = false;
  int64_t best_start = 0;
  for (uint32_t s = 0; s < loops_.size(); ++s) {
    Loop& loop = loops_[s];
    // Lazy pruning: an entry is live iff the loop's scheduler still holds
    // that client at that ready time (a client is ready on one loop at a
    // time, so stale entries are strictly older).
    while (!loop.ready.empty()) {
      const auto [ready, client] = loop.ready.front();
      if (loop.scheduler->IsReady(client) &&
          loop.scheduler->ready_ns(client) == ready) {
        break;
      }
      std::pop_heap(loop.ready.begin(), loop.ready.end(), std::greater<>{});
      loop.ready.pop_back();
    }
    if (loop.ready.empty()) continue;
    const int64_t start =
        std::max(loop.env->clock().now().nanos(), loop.ready.front().first);
    if (!found || start < best_start) {
      found = true;
      best_start = start;
      *picked = s;
    }
  }
  return found;
}

bool MtDriver::AboveWatermark(uint32_t loop) const {
  const io::Syncer* syncer = loops_[loop].env->syncer();
  return syncer != nullptr && syncer->AboveWatermark();
}

bool MtDriver::MustThrottle(uint32_t loop, OpKind kind) const {
  return params_.backpressure && kind != OpKind::kRead && AboveWatermark(loop);
}

void MtDriver::Suspend(uint32_t loop, const Client& c) {
  ++stats_.suspensions;
  ++stats_.per_client[c.id].suspensions;
  handoff_ = Handoff{loop, c.id};
}

Status MtDriver::ServiceOne(uint32_t loop, uint64_t id) {
  Client& c = clients_[id];
  sim::SimEnv* env = loops_[loop].env;
  env->spans()->set_client_id(id);
  // An idle loop waits for the request to arrive; a busy one queues it.
  const int64_t start = std::max(env->clock().now().nanos(), c.ready_ns);
  env->clock().AdvanceTo(SimTime::Nanos(start));
  const OpKind kind = c.next.kind;
  int64_t end = start;
  RETURN_IF_ERROR(ExecuteOp(&c, &end));
  loops_[loop].scheduler->NoteServiced(id, end - start);
  if (++c.done > params_.warmup_ops) {
    RecordOp(loop, c, kind, start - c.ready_ns, end - start);
  }
  --remaining_;
  if (--c.ops_left > 0) {
    GenerateNextOp(&c);
    Enqueue(&c, end);
    // The op pushed its loop over the watermark: park the client before
    // its next op.
    if (MustThrottle(loop, kind)) Suspend(loop, c);
  }
  return OkStatus();
}

Status MtDriver::HandleThrottleHandoff() {
  const Handoff h = *handoff_;
  handoff_.reset();
  ++stats_.resumes;
  Loop& loop = loops_[h.loop];
  if (AboveWatermark(h.loop)) {
    loop.env->syncer()->RequestThrottleFlush(h.client);
  }
  if (!loop.scheduler->IsReady(h.client)) return OkStatus();
  loop.scheduler->Take(h.client);
  return ServiceOne(h.loop, h.client);
}

Status MtDriver::Run() {
  if (ran_) return InvalidArgument("MtDriver::Run called twice");
  ran_ = true;
  RETURN_IF_ERROR(CheckParams(params_));
  RETURN_IF_ERROR(Populate());
  for (uint32_t s = 0; s < loops_.size(); ++s) {
    sim::SimEnv* env = loops_[s].env;
    RETURN_IF_ERROR(env->ColdCache());
    env->spans()->EnableClientBreakdown();
    if (params_.backpressure && env->syncer() != nullptr) {
      env->syncer()->set_deferred_throttle(true);
    }
    env->set_sample_hook([this, s](obs::TimeSample* sample) {
      sample->shard_id = s;
      sample->mt_ready = loops_[s].scheduler->ready_count();
      sample->mt_suspended = handoff_ && handoff_->loop == s ? 1 : 0;
    });
    env->ResetStats();
  }
  // The loops start measuring at one instant (a no-op for a single loop).
  const int64_t start = AlignClocks();

  stats_.Reset();
  stats_.enabled = true;
  stats_.clients = params_.clients;
  stats_.scheduler = SchedulerKindName(params_.scheduler);
  stats_.backpressure = params_.backpressure;
  stats_.per_client.resize(params_.clients);
  for (uint32_t i = 0; i < params_.clients; ++i) {
    stats_.per_client[i].client_id = i;
  }
  for (Client& c : clients_) {
    if (c.ops_left == 0) continue;
    GenerateNextOp(&c);
    Enqueue(&c, start);
    remaining_ += c.ops_left;
  }

  while (remaining_ > 0) {
    // A suspended crosser owes its loop a flush; hand it off promptly.
    // Deferring it (e.g. to let readers run ahead) is a trap: the flush
    // cost is paid either way, but meanwhile cache misses evict dirty
    // blocks one at a time — expensive inline writeback billed to innocent
    // clients.
    if (handoff_) {
      RETURN_IF_ERROR(HandleThrottleHandoff());
      continue;
    }
    uint32_t loop = 0;
    uint64_t id = 0;
    if (!PickLoop(&loop) ||
        !loops_[loop].scheduler->PickNext(none_suspended_, &id)) {
      return IoError("mt: no runnable client but ops remain");
    }
    Client& c = clients_[id];
    // Pick-time backpressure: never run a mutating op above the
    // watermark — suspend the client (keeping its queue position) instead.
    // This bounds dirty-set overshoot to zero additional mutating ops.
    if (MustThrottle(loop, c.next.kind)) {
      loops_[loop].scheduler->Enqueue(id, c.ready_ns);
      Suspend(loop, c);
      continue;
    }
    RETURN_IF_ERROR(ServiceOne(loop, id));
  }

  // Close under a neutral client id: the final Sync commits work from
  // every tenant.
  for (Loop& loop : loops_) {
    loop.env->spans()->set_client_id(0);
    loop.env->ChargeCpu();
    RETURN_IF_ERROR(loop.env->fs()->Sync());
    RETURN_IF_ERROR(loop.env->syncer_status());
  }
  stats_.elapsed_ns = AlignClocks() - start;
  for (uint32_t s = 0; s < loops_.size(); ++s) {
    loop_stats_[s].clock_end_ns = loops_[s].env->clock().now().nanos();
  }
  Detach();
  return OkStatus();
}

}  // namespace cffs::mt
