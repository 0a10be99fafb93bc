// Inter-client op schedulers for the multi-tenant service loop.
//
// The driver (mt/driver.h) runs a closed loop per client: a client's next
// op becomes ready the instant its previous op completes, so each client
// holds AT MOST ONE ready op at a time. The scheduler's job is to pick
// which ready client the single service "thread" runs next:
//
//   FIFO  — earliest ready time wins (ties by lowest client id). The
//           baseline: an expensive op delays everyone queued behind it.
//   DRR   — deficit round robin [Shreedhar & Varghese, SIGCOMM '95],
//           adapted for post-hoc costs: an op's service time is unknown
//           until it has run, so a client is served while its deficit is
//           non-negative and the measured cost is subtracted afterwards
//           (the "surplus round robin" variant). Each round-robin visit
//           grants one quantum, so over any backlogged interval every
//           client receives the same service time regardless of per-op
//           cost — an antagonist with 100x ops simply runs 100x fewer.
//
// Suspension (backpressure) is the driver's state; it is passed into every
// pick so a parked client keeps its queue position but is never chosen.
// With a single client both schedulers degenerate to "run it now", which
// the no-op-overhead unit test pins down.
#ifndef CFFS_MT_SCHEDULER_H_
#define CFFS_MT_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "src/util/sim_time.h"

namespace cffs::mt {

enum class SchedulerKind : uint8_t { kFifo = 0, kDrr = 1 };

const char* SchedulerKindName(SchedulerKind kind);
bool ParseSchedulerKind(std::string_view name, SchedulerKind* out);

class OpScheduler {
 public:
  explicit OpScheduler(uint32_t clients)
      : ready_(clients, kNotReady) {}
  virtual ~OpScheduler() = default;

  virtual SchedulerKind kind() const = 0;

  // Client `client`'s next op became ready at `ready_ns`. The closed loop
  // guarantees at most one ready op per client.
  void Enqueue(uint64_t client, int64_t ready_ns) {
    ready_[client] = ready_ns;
    ++ready_count_;
  }

  // Picks and removes the next op among ready clients whose `suspended`
  // flag is clear. Returns false when no eligible client remains (all
  // ready clients are suspended, or nothing is ready).
  bool PickNext(const std::vector<uint8_t>& suspended, uint64_t* client) {
    if (ready_count_ == 0) return false;
    if (!PickImpl(suspended, client)) return false;
    Take(*client);
    return true;
  }

  // Removes `client`'s ready op without consulting the policy — the
  // throttle handoff services the owning client directly.
  void Take(uint64_t client) {
    if (ready_[client] == kNotReady) return;
    ready_[client] = kNotReady;
    --ready_count_;
  }

  // Reports the measured service time of the op just run (DRR deficit
  // accounting; FIFO ignores it).
  virtual void NoteServiced(uint64_t client, int64_t service_ns) {
    (void)client;
    (void)service_ns;
  }

  size_t ready_count() const { return ready_count_; }
  bool IsReady(uint64_t client) const { return ready_[client] != kNotReady; }
  int64_t ready_ns(uint64_t client) const { return ready_[client]; }

 protected:
  static constexpr int64_t kNotReady = std::numeric_limits<int64_t>::min();

  virtual bool PickImpl(const std::vector<uint8_t>& suspended,
                        uint64_t* client) = 0;

  std::vector<int64_t> ready_;  // per-client ready time, kNotReady if none
  size_t ready_count_ = 0;
};

// Earliest ready time first, ties broken by lowest client id (the tie rule
// makes runs byte-for-byte deterministic).
class FifoScheduler : public OpScheduler {
 public:
  explicit FifoScheduler(uint32_t clients) : OpScheduler(clients) {}
  SchedulerKind kind() const override { return SchedulerKind::kFifo; }

 protected:
  bool PickImpl(const std::vector<uint8_t>& suspended,
                uint64_t* client) override;
};

class DrrScheduler : public OpScheduler {
 public:
  static constexpr int64_t kDefaultQuantumNs = SimTime::Micros(500).nanos();

  explicit DrrScheduler(uint32_t clients,
                        int64_t quantum_ns = kDefaultQuantumNs)
      : OpScheduler(clients),
        quantum_ns_(quantum_ns > 0 ? quantum_ns : kDefaultQuantumNs),
        deficit_(clients, 0) {}
  SchedulerKind kind() const override { return SchedulerKind::kDrr; }

  void NoteServiced(uint64_t client, int64_t service_ns) override;

  int64_t deficit(uint64_t client) const { return deficit_[client]; }
  int64_t quantum_ns() const { return quantum_ns_; }

 protected:
  bool PickImpl(const std::vector<uint8_t>& suspended,
                uint64_t* client) override;

 private:
  // The ring successor of client c.
  uint32_t Next(uint32_t c) const {
    return c + 1 == ready_.size() ? 0 : c + 1;
  }

  int64_t quantum_ns_;
  std::vector<int64_t> deficit_;
  uint32_t cursor_ = 0;  // ring position; stays on a client mid-quantum
};

std::unique_ptr<OpScheduler> MakeScheduler(SchedulerKind kind,
                                           uint32_t clients);

}  // namespace cffs::mt

#endif  // CFFS_MT_SCHEDULER_H_
