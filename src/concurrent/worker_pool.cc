#include "concurrent/worker_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/chaos.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dcdatalog {
namespace {

/// Set while a pool thread runs a gang member, so Run() can refuse nested
/// dispatch (a pool thread waiting for slots it itself occupies deadlocks).
thread_local bool t_inside_pool_worker = false;

}  // namespace

namespace {

/// The pool's only shared control state: the first exception any worker
/// threw. Lock-guarded (and TSA-annotated) rather than atomic — it is
/// touched at most once per evaluation, never on the per-iteration paths.
class ErrorSlot {
 public:
  void Capture(std::exception_ptr error) DCD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (first_ == nullptr) first_ = std::move(error);
  }

  /// Rethrows the captured exception, if any. Call after every worker
  /// joined — no lock is needed then, but taking it keeps the invariant
  /// checkable rather than argued.
  void RethrowIfSet() DCD_EXCLUDES(mu_) {
    std::exception_ptr error;
    {
      MutexLock lock(&mu_);
      error = first_;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  Mutex mu_;
  std::exception_ptr first_ DCD_GUARDED_BY(mu_);
};

}  // namespace

void RunWorkers(uint32_t num_workers,
                const std::function<void(uint32_t)>& fn) {
  if (num_workers == 1) {
    fn(0);
    return;
  }
  ErrorSlot errors;
  std::vector<std::thread> threads;
  threads.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    threads.emplace_back([&fn, &errors, w] {
      // Fuzzing hook: staggers worker start-up so the base phase does not
      // always begin in lockstep.
      DCD_CHAOS_POINT(kWorkerStart);
      try {
        fn(w);
      } catch (...) {
        errors.Capture(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();
  errors.RethrowIfSet();
}

void ParallelFor(uint32_t num_workers, uint64_t n,
                 const std::function<void(uint64_t, uint64_t)>& fn) {
  if (n == 0) return;
  num_workers = static_cast<uint32_t>(
      std::min<uint64_t>(std::max<uint32_t>(num_workers, 1), n));
  const uint64_t chunk = (n + num_workers - 1) / num_workers;
  RunWorkers(num_workers, [&](uint32_t w) {
    const uint64_t begin = w * chunk;
    const uint64_t end = std::min(begin + chunk, n);
    if (begin < end) fn(begin, end);
  });
}

WorkerPool::WorkerPool(uint32_t capacity)
    : capacity_(std::max<uint32_t>(capacity, 1)), free_(capacity_) {
  threads_.reserve(capacity_);
  for (uint32_t i = 0; i < capacity_; ++i) {
    threads_.emplace_back([this] { ThreadMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(&mu_);
    DCD_CHECK(free_ == capacity_ && tasks_.empty());
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void WorkerPool::ThreadMain() {
  while (true) {
    Job* job = nullptr;
    uint32_t worker_id = 0;
    {
      MutexLock lock(&mu_);
      while (!stop_ && tasks_.empty()) cv_.Wait(&mu_);
      if (tasks_.empty()) return;  // stop_ set and nothing left to run.
      job = tasks_.front().first;
      worker_id = tasks_.front().second;
      tasks_.pop_front();
    }
    DCD_CHAOS_POINT(kWorkerStart);
    t_inside_pool_worker = true;
    try {
      (*job->fn)(worker_id);
    } catch (...) {
      MutexLock lock(&mu_);
      if (job->first_error == nullptr) {
        job->first_error = std::current_exception();
      }
    }
    t_inside_pool_worker = false;
    {
      MutexLock lock(&mu_);
      --job->remaining;
    }
    // Wakes the gang's Run() caller; also re-checked by idle pool threads
    // and queued gangs, which go back to sleep.
    cv_.NotifyAll();
  }
}

void WorkerPool::Run(uint32_t num_workers,
                     const std::function<void(uint32_t)>& fn) {
  DCD_CHECK(!t_inside_pool_worker);
  // A gang wider than the pool could never be granted.
  DCD_CHECK(num_workers <= capacity_)
      << "gang of " << num_workers << " exceeds pool capacity " << capacity_;
  if (num_workers == 0) return;
  Job job;
  job.fn = &fn;
  job.remaining = num_workers;
  {
    MutexLock lock(&mu_);
    const uint64_t ticket = next_ticket_++;
    // FIFO gang grant: wait for the head of the queue AND enough free
    // threads, then claim the whole gang atomically.
    while (ticket != serving_ticket_ || free_ < num_workers) cv_.Wait(&mu_);
    free_ -= num_workers;
    ++serving_ticket_;
    for (uint32_t w = 0; w < num_workers; ++w) tasks_.emplace_back(&job, w);
  }
  cv_.NotifyAll();
  {
    MutexLock lock(&mu_);
    while (job.remaining != 0) cv_.Wait(&mu_);
    free_ += num_workers;
    ++jobs_run_;
  }
  cv_.NotifyAll();  // Slots freed: the next queued gang may now fit.
  if (job.first_error != nullptr) std::rethrow_exception(job.first_error);
}

uint32_t WorkerPool::InUse() const {
  MutexLock lock(&mu_);
  return capacity_ - free_;
}

uint32_t WorkerPool::Waiting() const {
  MutexLock lock(&mu_);
  return static_cast<uint32_t>(next_ticket_ - serving_ticket_);
}

uint64_t WorkerPool::JobsRun() const {
  MutexLock lock(&mu_);
  return jobs_run_;
}

}  // namespace dcdatalog
