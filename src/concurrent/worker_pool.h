#ifndef DCDATALOG_CONCURRENT_WORKER_POOL_H_
#define DCDATALOG_CONCURRENT_WORKER_POOL_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dcdatalog {

/// Runs fn(worker_id) on `num_workers` dedicated threads and joins them all.
/// The parallel evaluation of one Datalog program is a single such run —
/// workers live for the whole fixpoint computation, so thread start-up cost
/// is negligible and a persistent pool would only add complexity.
///
/// If a worker throws, the first exception is captured in the pool's
/// mutex-guarded control state and rethrown on the calling thread after all
/// workers joined (instead of std::terminate tearing the process down from
/// inside a worker thread). Later exceptions are dropped.
void RunWorkers(uint32_t num_workers,
                const std::function<void(uint32_t)>& fn);

/// Simple static-partition parallel-for over [0, n): each worker handles a
/// contiguous chunk. Used by loaders and generators.
void ParallelFor(uint32_t num_workers, uint64_t n,
                 const std::function<void(uint64_t begin, uint64_t end)>& fn);

/// Persistent worker pool shared across concurrent query sessions (the
/// `dcd serve` path). One-shot runs keep using RunWorkers — threads per
/// fixpoint are cheap there; the pool exists so N resident sessions do not
/// oversubscribe the machine with N * num_workers transient threads.
///
/// Scheduling is a FIFO *gang* grant: one evaluation's `n` workers
/// synchronize with each other (Global barriers, DWS termination detection),
/// so dispatching fewer than `n` at once could deadlock the fixpoint.
/// Run(n, fn) therefore waits until it is at the head of the arrival queue
/// AND `n` threads are free, then claims all `n` atomically.
/// FIFO order makes the grant starvation-free: a wide gang at the head
/// blocks later narrow gangs from stealing its slots forever.
///
/// Exception contract matches RunWorkers: the first exception a gang member
/// throws is rethrown on the calling thread after the whole gang finished.
///
/// Run() must not be called from inside a pool thread — the caller would
/// hold its gang's slots while waiting for slots — and a gang must fit the
/// pool, which could never grant a wider one (both checked, fail fast).
/// There is no dedicated-thread bypass: an Engine given a pool caps its
/// num_workers at capacity(), so the pool is the only admission control.
class WorkerPool {
 public:
  /// Spawns `capacity` resident threads (at least 1).
  explicit WorkerPool(uint32_t capacity);

  /// Joins all threads. Callers must have drained: destroying the pool
  /// while a Run() is in flight is a programming error (checked).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(0) .. fn(n-1) on pool threads and returns when all finished.
  /// Blocks until a gang of `n` threads is granted (FIFO). Requires
  /// n <= capacity() (checked).
  void Run(uint32_t num_workers, const std::function<void(uint32_t)>& fn)
      DCD_EXCLUDES(mu_);

  uint32_t capacity() const { return capacity_; }

  /// Threads currently claimed by granted gangs (telemetry snapshot).
  uint32_t InUse() const DCD_EXCLUDES(mu_);

  /// Gangs waiting for their grant (telemetry snapshot).
  uint32_t Waiting() const DCD_EXCLUDES(mu_);

  /// Total gangs completed since construction.
  uint64_t JobsRun() const DCD_EXCLUDES(mu_);

 private:
  /// One granted gang's control block, owned by the Run() stack frame.
  struct Job {
    const std::function<void(uint32_t)>* fn = nullptr;
    uint32_t remaining = 0;           // Members still running.
    std::exception_ptr first_error;   // First throw wins, later dropped.
  };

  void ThreadMain();

  const uint32_t capacity_;
  mutable Mutex mu_;
  CondVar cv_;  // Signals: task available, gang finished, slots freed, stop.
  std::deque<std::pair<Job*, uint32_t>> tasks_ DCD_GUARDED_BY(mu_);
  uint32_t free_ DCD_GUARDED_BY(mu_);
  uint64_t next_ticket_ DCD_GUARDED_BY(mu_) = 0;   // Arrival order.
  uint64_t serving_ticket_ DCD_GUARDED_BY(mu_) = 0;  // Head of the queue.
  uint64_t jobs_run_ DCD_GUARDED_BY(mu_) = 0;
  bool stop_ DCD_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CONCURRENT_WORKER_POOL_H_
