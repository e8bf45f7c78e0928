#ifndef DCDATALOG_CONCURRENT_SPSC_QUEUE_H_
#define DCDATALOG_CONCURRENT_SPSC_QUEUE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/affinity.h"
#include "common/chaos.h"
#include "common/hot_path.h"
#include "common/logging.h"

namespace dcdatalog {

/// Single-Producer Single-Consumer lock-free ring buffer (paper §6.1,
/// Figure 6). One instance implements the message buffer M_j^i through
/// which worker i sends newly derived tuples to worker j; because exactly
/// one worker writes and exactly one reads, head and tail can be plain
/// atomics with acquire/release ordering and no locks or CAS loops.
///
/// The ring is bounded; TryPush returns false when full and the caller
/// (the Distribute operator) drains or spins. Capacity is rounded up to a
/// power of two.
template <typename T>
class SpscQueue {
  // Slots are raw storage (see slots_), which only a trivially copyable,
  // trivially destructible element may live in.
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit SpscQueue(uint32_t capacity)
      : capacity_(std::bit_ceil(std::max<uint32_t>(capacity, 2))),
        mask_(capacity_ - 1),
        slots_(std::allocator<T>().allocate(capacity_)) {}

  ~SpscQueue() { std::allocator<T>().deallocate(slots_, capacity_); }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  uint32_t capacity() const { return capacity_; }

  /// Producer side. Returns false if the ring is full.
  DCD_HOT_ROOT bool TryPush(const T& item) {
    // Debug ownership check: the first pushing thread becomes THE producer;
    // any other thread pushing afterwards dies deterministically.
    DCD_AFFINITY_GUARD(producer_affinity_);
    // Fuzzing hook: a chaos schedule may force a spurious "full" here,
    // driving the producer through its backpressure path (no-op in
    // release builds and whenever no schedule is installed).
    if (DCD_CHAOS_FAIL(kQueuePush)) return false;
    DCD_CHAOS_POINT(kQueuePush);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_cache_;
    if (tail - head >= capacity_) {
      // Refresh the cached head; the consumer may have advanced.
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = item;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false if the ring is empty.
  DCD_HOT_ROOT bool TryPop(T* out) {
    DCD_AFFINITY_GUARD(consumer_affinity_);
    DCD_CHAOS_POINT(kQueuePop);
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    *out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops up to `max` items into `out` (appended). Returns
  /// the number popped. Batch draining is what Gather does once per local
  /// iteration.
  DCD_HOT_ROOT uint64_t PopBatch(std::vector<T>* out,
                                 uint64_t max = UINT64_MAX) {
    DCD_AFFINITY_GUARD(consumer_affinity_);
    DCD_CHAOS_POINT(kQueuePop);
    const uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_cache_;
    if (head == tail) {
      tail = tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail) return 0;
    }
    uint64_t n = std::min(tail - head, max);
    for (uint64_t i = 0; i < n; ++i) {
      out->push_back(slots_[(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Approximate occupancy; exact from the consumer's perspective at the
  /// moment of the loads. Used only for statistics and heuristics.
  uint64_t SizeApprox() const {
    uint64_t tail = tail_.load(std::memory_order_acquire);
    uint64_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

 private:
  static constexpr size_t kCacheLine = 64;

  const uint32_t capacity_;
  const uint64_t mask_;
  // Uninitialised: TryPush writes a slot before a pop reads it, so a ring
  // touches only the pages its pushes reach. The engine builds an n x n
  // grid of rings (512 KiB each at the default capacity) for every SCC it
  // runs, update batches included; initialising the slots would write all
  // of it (8 MiB at 4 workers) each time.
  T* const slots_;

  // Producer-owned line: tail plus its cached view of head.
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
  uint64_t head_cache_ = 0;

  // Consumer-owned line: head plus its cached view of tail.
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};
  uint64_t tail_cache_ = 0;

  // Debug-only owner stamps for the two endpoint roles (empty in release).
  DCD_AFFINITY_OWNER(producer_affinity_, "spsc-producer");
  DCD_AFFINITY_OWNER(consumer_affinity_, "spsc-consumer");
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CONCURRENT_SPSC_QUEUE_H_
