#ifndef DCDATALOG_CONCURRENT_TERMINATION_H_
#define DCDATALOG_CONCURRENT_TERMINATION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/affinity.h"
#include "common/chaos.h"

namespace dcdatalog {

/// Global-fixpoint detector, paper §6.1: evaluation terminates when (i) all
/// workers are inactive and (ii) every message buffer is empty. Buffer
/// emptiness is established counter-wise — one global count of tuples
/// produced into buffers versus per-worker counts of tuples consumed.
///
/// Protocol (all memory_order noted inline):
///  * A producer pushes one block of n tuples into a ring, then calls
///    OnBlockPushed(target, n) — AddProduced(n) followed by
///    Activate(target). Ordering matters: the produced count rises before
///    the target can observe itself re-activated, so a successful
///    termination check can never miss in-flight tuples. Batching the
///    update per block (not per tuple) cuts the two atomic RMWs from every
///    tuple to every ~hundred tuples without weakening the invariant: the
///    counters always describe whole blocks, which are the only unit that
///    ever sits in a ring.
///  * A consumer calls AddConsumed(self, n) with the tuple total of the
///    blocks it drained and Deactivate(self) only once it holds no
///    unprocessed tuples. Before AddConsumed it calls Activate(self): its
///    own earlier Deactivate may have overwritten the producer's Activate
///    for a block that was already in the ring, and the raised consumed
///    count must never be visible with the consumer's flag still down.
///  * Self-loop tuples (emitter == destination) never touch the detector:
///    they are local state by the time the emitting iteration's Flush
///    returns, exactly like a delta row the worker derived for itself.
///  * CheckTermination() double-reads the produced counter around the flag
///    scan; any concurrent production invalidates the round.
class TerminationDetector {
 public:
  explicit TerminationDetector(uint32_t num_workers)
      : consumed_(num_workers), active_(num_workers) {
    // Relaxed: single-threaded construction; RunWorkers' thread creation
    // publishes the detector to the workers.
    for (auto& counter : consumed_) {
      counter.v.store(0, std::memory_order_relaxed);
    }
    for (auto& flag : active_) {
      flag.v.store(true, std::memory_order_relaxed);
    }
  }

  void AddProduced(uint64_t n) {
    produced_.fetch_add(n, std::memory_order_acq_rel);
  }

  void AddConsumed(uint32_t worker, uint64_t n) {
    // Debug ownership check: the counter protocol is sound only if worker
    // w's consumed count is written by w's thread alone (consumed_total()
    // may read from anywhere).
    DCD_AFFINITY_GUARD(consumed_[worker].affinity);
    consumed_[worker].v.fetch_add(n, std::memory_order_acq_rel);
  }

  void Activate(uint32_t worker) {
    active_[worker].v.store(true, std::memory_order_release);
  }

  void Deactivate(uint32_t worker) {
    active_[worker].v.store(false, std::memory_order_release);
  }

  /// Producer-side batched update for one pushed block of `n` tuples:
  /// raises the produced count, then re-activates the destination — the
  /// one order under which a concurrent termination round stays sound.
  void OnBlockPushed(uint32_t dest, uint64_t n) {
    AddProduced(n);
    Activate(dest);
  }

  bool IsActive(uint32_t worker) const {
    return active_[worker].v.load(std::memory_order_acquire);
  }

  uint64_t produced() const {
    return produced_.load(std::memory_order_acquire);
  }

  uint64_t consumed_total() const {
    uint64_t c = 0;
    for (const auto& counter : consumed_) {
      c += counter.v.load(std::memory_order_acquire);
    }
    return c;
  }

  /// True once any worker has observed global fixpoint.
  bool Done() const { return done_.load(std::memory_order_acquire); }

  /// Runs one detection round; on success latches Done for everyone.
  bool CheckTermination() {
    if (Done()) return true;
    const uint64_t p1 = produced();
    // Fuzzing hook: widens the window between the two produced() reads so
    // rare interleavings of the double-read protocol get exercised.
    DCD_CHAOS_POINT(kTermination);
    if (consumed_total() != p1) return false;
    for (const auto& flag : active_) {
      if (flag.v.load(std::memory_order_acquire)) return false;
    }
    // Re-read: if production happened while we scanned the flags, the
    // snapshot was inconsistent and this round fails.
    if (produced() != p1) return false;
    done_.store(true, std::memory_order_release);
    return true;
  }

 private:
  // Each per-worker counter/flag sits on its own cache line to avoid
  // false sharing between workers that touch them every iteration.
  struct alignas(64) PaddedCounter {
    std::atomic<uint64_t> v;
    // Debug-only single-writer stamp for this worker's consumed count
    // (empty in release).
    DCD_AFFINITY_OWNER(affinity, "termination-consumer");
  };
  struct alignas(64) PaddedFlag {
    std::atomic<bool> v;
  };

  std::atomic<uint64_t> produced_{0};
  std::vector<PaddedCounter> consumed_;
  std::vector<PaddedFlag> active_;
  std::atomic<bool> done_{false};
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CONCURRENT_TERMINATION_H_
