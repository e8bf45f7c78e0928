#ifndef DCDATALOG_COMMON_AFFINITY_H_
#define DCDATALOG_COMMON_AFFINITY_H_

/// Debug-mode thread-ownership checker for the engine's single-writer
/// disciplines (docs/INTERNALS.md §7). The barrier-free coordination scheme
/// rests on role invariants that no lock enforces: each SPSC ring has
/// exactly one producer and one consumer, each RecursiveTable partition has
/// exactly one writing worker, each Distributor (and its staging blocks)
/// belongs to one worker. TSan finds violations only when a conflicting
/// schedule actually runs; a ThreadAffinity guard instead stamps the owner
/// thread id on first use of a role and aborts *deterministically* on any
/// access from another thread, printing both thread ids and the violated
/// role.
///
/// Compile-time gating mirrors src/common/chaos.h: guards follow !NDEBUG,
/// so debug and sanitizer builds always carry them while release builds
/// compile them out entirely — the macros expand to nothing, affinity.cc
/// compiles to an empty TU, and no affinity symbol reaches release objects
/// (CI verifies this with tools/lint/check_release_symbols.sh). Configure
/// with -DDCDATALOG_AFFINITY=ON to force the guards into an optimized
/// build.
#if !defined(DCD_AFFINITY_ENABLED)
#if defined(NDEBUG)
#define DCD_AFFINITY_ENABLED 0
#else
#define DCD_AFFINITY_ENABLED 1
#endif
#endif

#if DCD_AFFINITY_ENABLED

#include <atomic>
#include <cstdint>

namespace dcdatalog {

/// Small dense id for the calling thread (1, 2, 3, … in registration
/// order) — far more readable in an abort message than std::thread::id.
uint64_t AffinitySelfThreadId();

/// One ownership slot: unowned until the first guarded access, then bound
/// to that thread until Rebind(). Guarded accesses from any other thread
/// abort. The slot itself is safe to poll from any thread — ownership is a
/// single atomic — so a guard never introduces a data race of its own (it
/// must stay TSan-clean while watching for logic races).
class ThreadAffinity {
 public:
  explicit ThreadAffinity(const char* role) : role_(role) {}

  ThreadAffinity(const ThreadAffinity&) = delete;
  ThreadAffinity& operator=(const ThreadAffinity&) = delete;

  /// Asserts the calling thread owns this role, claiming it if unowned.
  void Check(const char* file, int line) {
    const uint64_t self = AffinitySelfThreadId();
    uint64_t owner = owner_.load(std::memory_order_acquire);
    if (owner == self) return;
    if (owner == 0 &&
        owner_.compare_exchange_strong(owner, self,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return;
    }
    // `owner` now holds the other thread's id — either it owned the role
    // already, or it won the claiming race, which is itself a concurrent
    // first access and therefore a violation.
    Die(owner, self, file, line);
  }

  /// Releases ownership at a legitimate hand-off point (e.g. a test reusing
  /// one queue across sequential producer threads). The caller is
  /// responsible for the hand-off happening-after all owner accesses.
  void Rebind() { owner_.store(0, std::memory_order_release); }

 private:
  [[noreturn]] void Die(uint64_t owner, uint64_t self, const char* file,
                        int line) const;

  std::atomic<uint64_t> owner_{0};
  const char* const role_;
};

}  // namespace dcdatalog

/// Declares an ownership slot as a class member (or local/global):
///   DCD_AFFINITY_OWNER(producer_affinity_, "spsc-producer");
#define DCD_AFFINITY_OWNER(name, role) ::dcdatalog::ThreadAffinity name{role}

/// Asserts the calling thread owns the slot, claiming it on first use.
#define DCD_AFFINITY_GUARD(name) (name).Check(__FILE__, __LINE__)

/// Releases the slot for a deliberate ownership hand-off.
#define DCD_AFFINITY_REBIND(name) (name).Rebind()

#else  // !DCD_AFFINITY_ENABLED

#define DCD_AFFINITY_OWNER(name, role) \
  static_assert(true, "affinity disabled")
#define DCD_AFFINITY_GUARD(name) ((void)0)
#define DCD_AFFINITY_REBIND(name) ((void)0)

#endif  // DCD_AFFINITY_ENABLED

#endif  // DCDATALOG_COMMON_AFFINITY_H_
