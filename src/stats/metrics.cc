#include "src/stats/metrics.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace cffs::stats {

namespace {

Json TimeJson(SimTime t) { return Json(t.seconds()); }

}  // namespace

Json ToJson(const fs::FsOpStats& s) {
  Json j = Json::Object();
  j.Set("creates", s.creates);
  j.Set("unlinks", s.unlinks);
  j.Set("lookups", s.lookups);
  j.Set("reads", s.reads);
  j.Set("writes", s.writes);
  j.Set("mkdirs", s.mkdirs);
  j.Set("rmdirs", s.rmdirs);
  j.Set("links", s.links);
  j.Set("renames", s.renames);
  j.Set("sync_metadata_writes", s.sync_metadata_writes);
  j.Set("group_reads", s.group_reads);
  j.Set("dentry_hits", s.dentry_hits);
  j.Set("dentry_neg_hits", s.dentry_neg_hits);
  j.Set("dentry_misses", s.dentry_misses);
  j.Set("dir_block_reads", s.dir_block_reads);
  j.Set("dir_index_builds", s.dir_index_builds);
  j.Set("dir_index_probes", s.dir_index_probes);
  j.Set("inode_cache_hits", s.inode_cache_hits);
  j.Set("inode_cache_misses", s.inode_cache_misses);
  j.Set("readdir_inode_loads_saved", s.readdir_inode_loads_saved);
  return j;
}

Json ToJson(const cache::CacheStats& s) {
  Json j = Json::Object();
  j.Set("lookups", s.lookups);
  j.Set("hits", s.hits);
  j.Set("misses", s.misses);
  j.Set("group_reads", s.group_reads);
  j.Set("group_blocks", s.group_blocks);
  j.Set("writebacks", s.writebacks);
  j.Set("evictions", s.evictions);
  j.Set("readahead_staged", s.readahead_staged);
  j.Set("readahead_hits", s.readahead_hits);
  j.Set("readahead_wasted", s.readahead_wasted);
  return j;
}

Json ToJson(const io::IoEngineStats& s) {
  Json j = Json::Object();
  j.Set("write_epochs", s.write_epochs);
  j.Set("read_commands", s.read_commands);
  return j;
}

Json ToJson(const io::SyncerStats& s) {
  Json j = Json::Object();
  j.Set("flushes", s.flushes);
  j.Set("deadline_flushes", s.deadline_flushes);
  j.Set("throttle_flushes", s.throttle_flushes);
  j.Set("blocks_flushed", s.blocks_flushed);
  j.Set("ticks", s.ticks);
  j.Set("throttle_stall_ns", s.throttle_stall_ns);
  return j;
}

Json ToJson(const mt::MtStats& s) {
  Json j = Json::Object();
  j.Set("enabled", s.enabled);
  if (!s.enabled) return j;
  j.Set("clients", static_cast<uint64_t>(s.clients));
  j.Set("scheduler", s.scheduler);
  j.Set("backpressure", s.backpressure);
  j.Set("ops_serviced", s.ops_serviced);
  j.Set("suspensions", s.suspensions);
  j.Set("resumes", s.resumes);
  j.Set("max_ready", s.max_ready);
  j.Set("service_ns", s.service_ns);
  j.Set("queue_wait_ns", s.queue_wait_ns);
  j.Set("jain_fairness", s.JainFairnessIndex());
  j.Set("latency", obs::ToJson(s.latency));
  j.Set("queue_wait", obs::ToJson(s.queue_wait));
  Json by_kind = Json::Object();
  by_kind.Set("create", obs::ToJson(s.create_latency));
  by_kind.Set("read", obs::ToJson(s.read_latency));
  by_kind.Set("delete", obs::ToJson(s.delete_latency));
  by_kind.Set("write", obs::ToJson(s.write_latency));
  by_kind.Set("rename", obs::ToJson(s.rename_latency));
  j.Set("by_kind", std::move(by_kind));
  // Per-client detail stays out of the report (1024 tenants would dwarf
  // it); the worst tails surface via spans.per_client and
  // cffs_run --per-client.
  return j;
}

Json ToJson(const io::ReadaheadStats& s) {
  Json j = Json::Object();
  j.Set("group_stages", s.group_stages);
  j.Set("ramp_stages", s.ramp_stages);
  j.Set("blocks_requested", s.blocks_requested);
  j.Set("ramp_resets", s.ramp_resets);
  return j;
}

Json ToJson(const blk::BlockIoStats& s) {
  Json j = Json::Object();
  j.Set("reads", s.reads);
  j.Set("writes", s.writes);
  j.Set("blocks_read", s.blocks_read);
  j.Set("blocks_written", s.blocks_written);
  return j;
}

Json ToJson(const disk::DiskStats& s) {
  Json j = Json::Object();
  j.Set("read_requests", s.read_requests);
  j.Set("write_requests", s.write_requests);
  j.Set("sectors_read", s.sectors_read);
  j.Set("sectors_written", s.sectors_written);
  j.Set("cache_hit_requests", s.cache_hit_requests);
  j.Set("seek_cylinders", s.seek_cylinders);
  j.Set("seek_s", TimeJson(s.seek_time));
  j.Set("rotation_s", TimeJson(s.rotation_time));
  j.Set("transfer_s", TimeJson(s.transfer_time));
  j.Set("overhead_s", TimeJson(s.overhead_time));
  j.Set("busy_s", TimeJson(s.busy_time));
  return j;
}

Json ToJson(const flash::FlashStats& s) {
  Json j = Json::Object();
  j.Set("read_requests", s.read_requests);
  j.Set("write_requests", s.write_requests);
  j.Set("sectors_read", s.sectors_read);
  j.Set("sectors_written", s.sectors_written);
  j.Set("erases", s.erases);
  j.Set("overhead_s", TimeJson(s.overhead_time));
  j.Set("wait_s", TimeJson(s.wait_time));
  j.Set("read_s", TimeJson(s.read_time));
  j.Set("program_s", TimeJson(s.program_time));
  j.Set("erase_s", TimeJson(s.erase_time));
  j.Set("busy_s", TimeJson(s.busy_time));
  return j;
}

Json MetricsSnapshot::ToJson() const {
  Json j = Json::Object();
  j.Set("fs", fs_name);
  j.Set("sim_seconds", sim_seconds);
  j.Set("fs_ops", stats::ToJson(fs_ops));
  j.Set("cache", stats::ToJson(cache));
  j.Set("block_io", stats::ToJson(block_io));
  j.Set("disk", stats::ToJson(disk));
  Json fl = stats::ToJson(flash);
  fl.Set("enabled", flash_enabled);
  j.Set("flash", std::move(fl));
  j.Set("io_engine", stats::ToJson(io_engine));
  j.Set("syncer", stats::ToJson(syncer));
  j.Set("readahead", stats::ToJson(readahead));
  j.Set("mt", stats::ToJson(mt));
  j.Set("spans", spans.ToJson());
  Json trace = Json::Object();
  trace.Set("events", trace_events);
  trace.Set("dropped", trace_dropped);
  j.Set("trace", std::move(trace));
  Json series = Json::Array();
  for (const obs::TimeSample& s : time_series) series.Push(obs::ToJson(s));
  j.Set("time_series", std::move(series));
  return j;
}

std::vector<std::string> MetricsSnapshot::CheckInvariants() const {
  std::vector<std::string> bad;
  auto fail = [&bad](const char* fmt, auto... args) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    bad.emplace_back(buf);
  };

  if (cache.hits + cache.misses != cache.lookups) {
    fail("cache: hits (%llu) + misses (%llu) != lookups (%llu)",
         static_cast<unsigned long long>(cache.hits),
         static_cast<unsigned long long>(cache.misses),
         static_cast<unsigned long long>(cache.lookups));
  }

  const SimTime mech = disk.seek_time + disk.rotation_time + disk.transfer_time;
  if (disk.busy_time < mech) {
    fail("disk: busy (%.6fs) < seek+rotation+transfer (%.6fs)",
         disk.busy_time.seconds(), mech.seconds());
  }
  // Every component of every request is accounted exactly once; allow only
  // integer-nanosecond rounding per request for the full-breakdown check.
  const SimTime full = mech + disk.overhead_time;
  const int64_t tolerance_ns =
      16 * static_cast<int64_t>(disk.total_requests()) + 1000;
  if (std::llabs((disk.busy_time - full).nanos()) > tolerance_ns) {
    fail("disk: busy (%.9fs) != seek+rotation+transfer+overhead (%.9fs)",
         disk.busy_time.seconds(), full.seconds());
  }

  if (flash_enabled) {
    // Flash runs: the device commands are flash commands (the wrapped disk
    // model only stores data and records no requests of its own).
    if (block_io.reads != flash.read_requests) {
      fail("block io: %llu read commands vs %llu flash read requests",
           static_cast<unsigned long long>(block_io.reads),
           static_cast<unsigned long long>(flash.read_requests));
    }
    if (block_io.writes != flash.write_requests) {
      fail("block io: %llu write commands vs %llu flash write requests",
           static_cast<unsigned long long>(block_io.writes),
           static_cast<unsigned long long>(flash.write_requests));
    }
    // The critical-channel decomposition is exact by construction: every
    // window's wait is computed as elapsed minus the other four phases, so
    // the books must balance to the nanosecond.
    const SimTime flash_sum = flash.overhead_time + flash.wait_time +
                              flash.read_time + flash.program_time +
                              flash.erase_time;
    if (flash.busy_time.nanos() != flash_sum.nanos()) {
      fail("flash: busy (%lld ns) != overhead+wait+read+program+erase "
           "(%lld ns)",
           static_cast<long long>(flash.busy_time.nanos()),
           static_cast<long long>(flash_sum.nanos()));
    }
    if (disk.total_requests() != 0) {
      fail("flash: wrapped disk model recorded %llu timed requests",
           static_cast<unsigned long long>(disk.total_requests()));
    }
  } else {
    if (block_io.reads != disk.read_requests) {
      fail("block io: %llu read commands vs %llu disk read requests",
           static_cast<unsigned long long>(block_io.reads),
           static_cast<unsigned long long>(disk.read_requests));
    }
    if (block_io.writes != disk.write_requests) {
      fail("block io: %llu write commands vs %llu disk write requests",
           static_cast<unsigned long long>(block_io.writes),
           static_cast<unsigned long long>(disk.write_requests));
    }
  }

  // Every Lookup is answered exactly once: by a positive dentry hit, a
  // negative dentry hit, or a miss that consulted the directory.
  if (fs_ops.dentry_hits + fs_ops.dentry_neg_hits + fs_ops.dentry_misses !=
      fs_ops.lookups) {
    fail("dentry: hits (%llu) + neg_hits (%llu) + misses (%llu) != lookups (%llu)",
         static_cast<unsigned long long>(fs_ops.dentry_hits),
         static_cast<unsigned long long>(fs_ops.dentry_neg_hits),
         static_cast<unsigned long long>(fs_ops.dentry_misses),
         static_cast<unsigned long long>(fs_ops.lookups));
  }

  if (cache.readahead_hits + cache.readahead_wasted > cache.readahead_staged) {
    fail("readahead: hits (%llu) + wasted (%llu) > staged (%llu)",
         static_cast<unsigned long long>(cache.readahead_hits),
         static_cast<unsigned long long>(cache.readahead_wasted),
         static_cast<unsigned long long>(cache.readahead_staged));
  }
  if (syncer.blocks_flushed > cache.writebacks) {
    fail("syncer: blocks_flushed (%llu) > cache writebacks (%llu)",
         static_cast<unsigned long long>(syncer.blocks_flushed),
         static_cast<unsigned long long>(cache.writebacks));
  }

  // Span attribution. The residual check is per-op and exact: EndOp counts
  // a violation whenever an op's phase times did not sum to its end-to-end
  // latency. The aggregate equality re-checks the same books from the
  // per-type totals. Skipped entirely when no spans were tracked (hand-
  // assembled snapshots).
  if (spans.ops_finished > 0) {
    if (spans.invariant_violations > 0) {
      fail("spans: %llu ops with phase-sum != end-to-end latency "
           "(max residual %lld ns)",
           static_cast<unsigned long long>(spans.invariant_violations),
           static_cast<long long>(spans.max_residual_ns));
    }
    for (int i = 0; i < obs::kTrackedOps; ++i) {
      const obs::OpTypeBreakdown& b = spans.per_op[i];
      if (b.e2e_total_ns != b.totals.TotalNs()) {
        fail("spans: %s phase total (%lld ns) != e2e total (%lld ns)",
             obs::FsOpName(obs::TrackedOpAt(i)),
             static_cast<long long>(b.totals.TotalNs()),
             static_cast<long long>(b.e2e_total_ns));
      }
    }
    struct { const char* name; obs::FsOp op; uint64_t ops; } span_pairs[] = {
        {"lookup", obs::FsOp::kLookup, fs_ops.lookups},
        {"create", obs::FsOp::kCreate, fs_ops.creates},
        {"read", obs::FsOp::kRead, fs_ops.reads},
        {"write", obs::FsOp::kWrite, fs_ops.writes},
        {"mkdir", obs::FsOp::kMkdir, fs_ops.mkdirs},
        {"unlink", obs::FsOp::kUnlink, fs_ops.unlinks},
        {"rmdir", obs::FsOp::kRmdir, fs_ops.rmdirs},
        {"link", obs::FsOp::kLink, fs_ops.links},
        {"rename", obs::FsOp::kRename, fs_ops.renames},
    };
    for (const auto& p : span_pairs) {
      const uint64_t span_count = spans.ForOp(p.op)->count();
      if (span_count != p.ops) {
        fail("spans: %s has %llu spans for %llu ops", p.name,
             static_cast<unsigned long long>(span_count),
             static_cast<unsigned long long>(p.ops));
      }
    }
    // Per-client attribution (multi-tenant runs): every finished op was
    // credited to exactly one client, and each client's phase sums still
    // equal its end-to-end total — the headline invariant survives the
    // per-client split.
    if (!spans.per_client.empty()) {
      uint64_t client_ops = 0;
      for (const obs::ClientBreakdown& c : spans.per_client) {
        client_ops += c.ops;
        if (c.e2e_total_ns != c.totals.TotalNs()) {
          fail("spans: client %llu phase total (%lld ns) != e2e total "
               "(%lld ns)",
               static_cast<unsigned long long>(c.client_id),
               static_cast<long long>(c.totals.TotalNs()),
               static_cast<long long>(c.e2e_total_ns));
        }
        if (c.e2e.count() != c.ops) {
          fail("spans: client %llu histogram has %llu samples for %llu ops",
               static_cast<unsigned long long>(c.client_id),
               static_cast<unsigned long long>(c.e2e.count()),
               static_cast<unsigned long long>(c.ops));
        }
      }
      if (client_ops != spans.ops_finished) {
        fail("spans: per-client ops (%llu) != ops finished (%llu)",
             static_cast<unsigned long long>(client_ops),
             static_cast<unsigned long long>(spans.ops_finished));
      }
    }
  }

  // Multi-tenant scheduler books (src/mt).
  if (mt.enabled) {
    uint64_t client_ops = 0;
    for (const mt::MtClientStats& c : mt.per_client) {
      client_ops += c.ops;
      if (c.latency.count() != c.ops) {
        fail("mt: client %llu latency histogram has %llu samples for "
             "%llu ops",
             static_cast<unsigned long long>(c.client_id),
             static_cast<unsigned long long>(c.latency.count()),
             static_cast<unsigned long long>(c.ops));
      }
      const uint64_t kinds =
          c.creates + c.reads + c.deletes + c.writes + c.renames;
      if (kinds != c.ops) {
        fail("mt: client %llu op kinds (%llu) != ops (%llu)",
             static_cast<unsigned long long>(c.client_id),
             static_cast<unsigned long long>(kinds),
             static_cast<unsigned long long>(c.ops));
      }
    }
    if (client_ops != mt.ops_serviced) {
      fail("mt: per-client ops (%llu) != ops serviced (%llu)",
           static_cast<unsigned long long>(client_ops),
           static_cast<unsigned long long>(mt.ops_serviced));
    }
    if (mt.latency.count() != mt.ops_serviced ||
        mt.queue_wait.count() != mt.ops_serviced) {
      fail("mt: aggregate histograms (%llu latency / %llu queue-wait "
           "samples) != ops serviced (%llu)",
           static_cast<unsigned long long>(mt.latency.count()),
           static_cast<unsigned long long>(mt.queue_wait.count()),
           static_cast<unsigned long long>(mt.ops_serviced));
    }
    const double jain = mt.JainFairnessIndex();
    if (jain <= 0.0 || jain > 1.0 + 1e-9) {
      fail("mt: Jain fairness index %.6f outside (0, 1]", jain);
    }
  }

  if (trace_dropped > 0) {
    fail("trace: ring dropped %llu events (capacity too small; "
         "trace-derived results are incomplete)",
         static_cast<unsigned long long>(trace_dropped));
  }
  return bad;
}

}  // namespace cffs::stats
