#include "src/mt/scheduler.h"

#include <algorithm>

namespace cffs::mt {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kDrr: return "drr";
  }
  return "?";
}

bool ParseSchedulerKind(std::string_view name, SchedulerKind* out) {
  if (name == "fifo") {
    *out = SchedulerKind::kFifo;
    return true;
  }
  if (name == "drr") {
    *out = SchedulerKind::kDrr;
    return true;
  }
  return false;
}

bool FifoScheduler::PickImpl(const std::vector<uint8_t>& suspended,
                             uint64_t* client) {
  bool found = false;
  int64_t best_ns = 0;
  uint64_t best = 0;
  for (uint64_t c = 0; c < ready_.size(); ++c) {
    if (ready_[c] == kNotReady || suspended[c]) continue;
    if (!found || ready_[c] < best_ns) {
      found = true;
      best_ns = ready_[c];
      best = c;
    }
  }
  if (found) *client = best;
  return found;
}

bool DrrScheduler::PickImpl(const std::vector<uint8_t>& suspended,
                            uint64_t* client) {
  const uint32_t n = static_cast<uint32_t>(ready_.size());
  auto eligible = [&](uint32_t c) {
    return ready_[c] != kNotReady && !suspended[c];
  };
  // With nobody eligible the pick fails and changes nothing. The probe
  // stops at the first eligible client, so it costs no more than the walk.
  for (uint32_t c = cursor_; !eligible(c);) {
    c = Next(c);
    if (c == cursor_) return false;
  }
  // Walk the ring. An eligible client with a non-negative deficit is
  // served on sight; a negative one is granted a quantum per visit. An
  // ineligible client forfeits its banked deficit (classic DRR removes
  // empty queues from the active list for the same reason: idleness must
  // not accrue credit).
  for (;;) {
    int64_t best = std::numeric_limits<int64_t>::min();
    for (uint32_t step = 0; step < n; ++step) {
      const uint32_t c = cursor_;
      if (!eligible(c)) {
        deficit_[c] = 0;
        cursor_ = Next(c);
        continue;
      }
      if (deficit_[c] < 0) {
        deficit_[c] += quantum_ns_;
        if (deficit_[c] < 0) {
          best = std::max(best, deficit_[c]);
          cursor_ = Next(c);
          continue;
        }
      }
      // Serve without advancing: the client keeps the slot until its
      // measured costs exhaust the deficit (NoteServiced advances then).
      *client = c;
      return true;
    }
    // A full pass served nobody: every eligible deficit is negative and
    // the cursor is back where the pass began. The next pass that serves
    // anyone is pass ceil(-best / quantum), so grant the passes before it
    // at once; the walk above then replays that pass exactly.
    const int64_t idle = (-best - 1) / quantum_ns_;
    for (uint32_t c = 0; idle > 0 && c < n; ++c) {
      if (eligible(c)) deficit_[c] += idle * quantum_ns_;
    }
  }
}

void DrrScheduler::NoteServiced(uint64_t client, int64_t service_ns) {
  deficit_[client] -= service_ns;
  if (deficit_[client] <= 0 && cursor_ == client) cursor_ = Next(cursor_);
}

std::unique_ptr<OpScheduler> MakeScheduler(SchedulerKind kind,
                                           uint32_t clients) {
  if (kind == SchedulerKind::kDrr) {
    return std::make_unique<DrrScheduler>(clients);
  }
  return std::make_unique<FifoScheduler>(clients);
}

}  // namespace cffs::mt
