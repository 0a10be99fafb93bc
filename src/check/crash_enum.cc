#include "src/check/crash_enum.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "src/disk/scheduler.h"
#include "src/fsck/fsck.h"
#include "src/obs/json.h"
#include "src/util/rng.h"

namespace cffs::check {

namespace {

// Evenly-spaced sample of 0..n inclusive, always containing 0 and n.
std::vector<size_t> SampleLengths(size_t n, size_t cap) {
  std::vector<size_t> out;
  if (cap == 0) cap = 1;
  if (n + 1 <= cap) {
    for (size_t l = 0; l <= n; ++l) out.push_back(l);
    return out;
  }
  for (size_t k = 0; k < cap; ++k) {
    out.push_back(k * n / (cap - 1));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::string CrashEnumReport::ToJson(int indent) const {
  obs::Json doc = obs::Json::Object();
  doc.Set("format", "cffs-crashenum-v1");
  doc.Set("dirty_blocks", dirty_blocks);
  doc.Set("states", states);
  doc.Set("unclean_images", unclean_images);
  doc.Set("unmountable", unmountable);
  doc.Set("repair_failures", repair_failures);
  doc.Set("all_recoverable", all_recoverable());
  obs::Json list = obs::Json::Array();
  for (const std::string& f : failures) list.Push(f);
  doc.Set("failures", std::move(list));
  return doc.Dump(indent);
}

CrashStateEnumerator::CrashStateEnumerator(sim::SimEnv* env,
                                           CrashEnumOptions options)
    : env_(env), options_(options) {
  if (options_.quick) {
    options_.max_prefixes = std::min<size_t>(options_.max_prefixes, 6);
    options_.max_dropouts = std::min<size_t>(options_.max_dropouts, 4);
    options_.max_subsets = std::min<size_t>(options_.max_subsets, 6);
  }
}

Status CrashStateEnumerator::ExploreState(
    const std::vector<cache::BufferCache::DirtyBlock>& dirty,
    const std::vector<bool>& selected, const std::string& label,
    CrashEnumReport* report) {
  ++report->states;

  // Materialize the crash image on a clone; the live disk is untouched.
  auto mounted = sim::SimEnv::Open(
      env_->config(), [&](disk::DiskModel& clone) {
        Status status = OkStatus();
        env_->disk().ForEachChunk(
            [&](uint64_t chunk_index, std::span<const uint8_t> data) {
              if (status.ok()) status = clone.RestoreChunk(chunk_index, data);
            });
        for (size_t i = 0; i < dirty.size() && status.ok(); ++i) {
          if (!selected[i]) continue;
          const auto& d = dirty[i];
          status = clone.PokeSector(d.bno * blk::kSectorsPerBlock,
                                    std::span(d.data.data(), blk::kBlockSize));
        }
        return status;
      });
  if (!mounted.ok()) {
    ++report->unmountable;
    report->failures.push_back(label + ": mount failed: " +
                               mounted.status().ToString());
    return OkStatus();
  }
  fs::FsBase* fs = (*mounted)->fs_base();

  auto readonly = fsck::Check(fs, {.repair = false});
  if (!readonly.ok()) {
    ++report->unclean_images;
    ++report->repair_failures;
    report->failures.push_back(label + ": fsck errored: " +
                               readonly.status().ToString());
    return OkStatus();
  }
  if (!readonly->clean) ++report->unclean_images;

  auto run_post_check = [&]() -> Status {
    if (!options_.post_repair_check) return OkStatus();
    if (Status s = options_.post_repair_check(fs); !s.ok()) {
      ++report->repair_failures;
      report->failures.push_back(label + ": post-repair check failed: " +
                                 s.ToString());
    }
    return OkStatus();
  };

  // Repair until the image converges. One round can expose new damage
  // (clearing an orphaned directory orphans its children), so re-run like
  // classic fsck does — but bound the rounds so a non-converging repair
  // is reported instead of looping.
  constexpr int kMaxRepairRounds = 3;
  for (int round = 0; round < kMaxRepairRounds; ++round) {
    auto repaired = fsck::Check(fs, {.repair = true});
    if (!repaired.ok()) {
      ++report->repair_failures;
      report->failures.push_back(label + ": repair errored: " +
                                 repaired.status().ToString());
      return OkStatus();
    }
    if (Status s = fs->Sync(); !s.ok()) {
      ++report->repair_failures;
      report->failures.push_back(label + ": post-repair sync failed: " +
                                 s.ToString());
      return OkStatus();
    }
    auto verify = fsck::Check(fs, {.repair = false});
    if (!verify.ok()) {
      ++report->repair_failures;
      report->failures.push_back(label + ": verify errored: " +
                                 verify.status().ToString());
      return OkStatus();
    }
    if (verify->clean) return run_post_check();
    if (round + 1 == kMaxRepairRounds) {
      ++report->repair_failures;
      report->failures.push_back(
          label + ": not clean after repair: " +
          (verify->problems.empty() ? std::string("unknown")
                                    : verify->problems.front()));
    }
  }
  return OkStatus();
}

Result<CrashEnumReport> CrashStateEnumerator::Run() {
  CrashEnumReport report;
  std::vector<cache::BufferCache::DirtyBlock> dirty;
  std::vector<size_t> order;
  if (options_.syncer_plan) {
    // The exact sequence the next syncer epoch would put on the platter:
    // FlushPlanBlocks() returns the flush plan already in the device
    // scheduler's service order, so the drain order is the identity.
    dirty = env_->cache().FlushPlanBlocks();
    order.resize(dirty.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else {
    dirty = env_->cache().DirtyBlocks();
    // The order the scheduler would drain the queue in: prefixes of this
    // are the crash points a well-behaved disk actually passes through.
    std::vector<disk::PendingRequest> reqs;
    reqs.reserve(dirty.size());
    for (const auto& d : dirty) {
      reqs.push_back({d.bno * blk::kSectorsPerBlock, blk::kSectorsPerBlock});
    }
    order = disk::ScheduleOrder(reqs, /*head_lba=*/0, env_->config().scheduler);
  }
  const size_t n = dirty.size();
  report.dirty_blocks = n;

  std::vector<bool> selected(n, false);

  for (size_t len : SampleLengths(n, options_.max_prefixes)) {
    std::fill(selected.begin(), selected.end(), false);
    for (size_t k = 0; k < len; ++k) selected[order[k]] = true;
    RETURN_IF_ERROR(ExploreState(dirty, selected,
                                 "prefix[" + std::to_string(len) + "]",
                                 &report));
  }

  if (n > 0) {
    for (size_t len : SampleLengths(n - 1, options_.max_dropouts)) {
      const size_t victim = order[len];
      std::fill(selected.begin(), selected.end(), true);
      selected[victim] = false;
      RETURN_IF_ERROR(
          ExploreState(dirty, selected,
                       "dropout[bno=" + std::to_string(dirty[victim].bno) + "]",
                       &report));
    }
  }

  Rng rng(options_.seed);
  for (size_t k = 0; n > 0 && k < options_.max_subsets; ++k) {
    for (size_t i = 0; i < n; ++i) selected[i] = (rng.Next() & 1) != 0;
    RETURN_IF_ERROR(ExploreState(dirty, selected,
                                 "subset[" + std::to_string(k) + "]",
                                 &report));
  }
  return report;
}

}  // namespace cffs::check
