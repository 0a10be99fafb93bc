#include "src/workload/trace.h"

namespace cffs::workload {

Result<ReplayStats> ReplayTrace(sim::SimEnv* env, const Trace& trace) {
  ReplayStats stats;
  auto& p = env->path();
  const SimTime t0 = env->clock().now();
  const uint64_t reqs0 = env->disk().stats().total_requests();
  std::vector<uint8_t> io_buf;

  for (const TraceRecord& r : trace.records()) {
    env->ChargeCpu();
    bool ok = true;
    switch (r.op) {
      case TraceOp::kCreate:
        ok = p.CreateFile(r.a).ok();
        break;
      case TraceOp::kWrite: {
        auto ino = p.Resolve(r.a);
        if (!ino.ok()) {
          auto made = p.CreateFile(r.a);
          if (!made.ok()) {
            ok = false;
            break;
          }
          ino = *made;
        }
        io_buf.assign(r.size, static_cast<uint8_t>(r.offset ^ r.size));
        env->ChargeCpu(r.size);
        auto n = env->fs()->Write(*ino, r.offset, io_buf);
        ok = n.ok() && *n == r.size;
        if (ok) stats.bytes_written += r.size;
        break;
      }
      case TraceOp::kRead: {
        auto ino = p.Resolve(r.a);
        if (!ino.ok()) {
          ok = false;
          break;
        }
        io_buf.resize(r.size);
        env->ChargeCpu(r.size);
        auto n = env->fs()->Read(*ino, r.offset, io_buf);
        ok = n.ok();
        if (ok) stats.bytes_read += *n;
        break;
      }
      case TraceOp::kUnlink:
        ok = p.Unlink(r.a).ok();
        break;
      case TraceOp::kMkdir:
        ok = p.MkdirAll(r.a).ok();
        break;
      case TraceOp::kRmdir:
        ok = p.Rmdir(r.a).ok();
        break;
      case TraceOp::kRename:
        ok = p.Rename(r.a, r.b).ok();
        break;
      case TraceOp::kTruncate: {
        auto ino = p.Resolve(r.a);
        ok = ino.ok() && env->fs()->Truncate(*ino, r.size).ok();
        break;
      }
      case TraceOp::kSync:
        ok = env->fs()->Sync().ok();
        break;
    }
    if (ok) {
      ++stats.ops_applied;
    } else {
      ++stats.ops_failed;
    }
  }
  RETURN_IF_ERROR(env->fs()->Sync());
  stats.seconds = (env->clock().now() - t0).seconds();
  stats.disk_requests = env->disk().stats().total_requests() - reqs0;
  return stats;
}

Trace GeneratePostmark(const PostmarkParams& params) {
  Trace trace;
  Rng rng(params.seed);
  auto file_size = [&]() {
    return params.min_bytes + rng.Below(params.max_bytes - params.min_bytes);
  };
  auto dir_of = [&](uint32_t i) {
    return "/pm" + std::to_string(i % params.num_dirs);
  };

  for (uint32_t d = 0; d < params.num_dirs; ++d) {
    trace.Add({TraceOp::kMkdir, "/pm" + std::to_string(d), "", 0, 0});
  }

  // Initial pool.
  std::vector<std::string> pool;
  uint32_t name_seq = 0;
  for (uint32_t i = 0; i < params.initial_files; ++i) {
    const std::string path = dir_of(i) + "/m" + std::to_string(name_seq++);
    trace.Add({TraceOp::kWrite, path, "", 0, file_size()});
    pool.push_back(path);
  }
  trace.Add({TraceOp::kSync, "", "", 0, 0});

  // Transactions: (read | append) + (create | delete), 50/50 each, the
  // classic PostMark mix.
  for (uint32_t t = 0; t < params.transactions; ++t) {
    if (pool.empty()) break;
    const std::string& victim = pool[rng.Below(pool.size())];
    if (rng.Chance(0.5)) {
      trace.Add({TraceOp::kRead, victim, "", 0, params.min_bytes});
    } else {
      trace.Add({TraceOp::kWrite, victim, "", file_size(), params.min_bytes});
    }
    if (rng.Chance(0.5)) {
      const std::string path =
          dir_of(name_seq) + "/m" + std::to_string(name_seq);
      ++name_seq;
      trace.Add({TraceOp::kWrite, path, "", 0, file_size()});
      pool.push_back(path);
    } else {
      const size_t idx = rng.Below(pool.size());
      trace.Add({TraceOp::kUnlink, pool[idx], "", 0, 0});
      pool[idx] = pool.back();
      pool.pop_back();
    }
  }

  // Teardown: delete everything left.
  for (const std::string& path : pool) {
    trace.Add({TraceOp::kUnlink, path, "", 0, 0});
  }
  trace.Add({TraceOp::kSync, "", "", 0, 0});
  return trace;
}

}  // namespace cffs::workload
