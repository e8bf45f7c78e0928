#ifndef DCDATALOG_COMMON_MUTEX_H_
#define DCDATALOG_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace dcdatalog {

/// std::mutex wrapped as a TSA capability so clang's `-Wthread-safety` can
/// check the lock discipline (libstdc++'s std::mutex carries no capability
/// attributes, so annotating it directly does nothing). All lock-guarded
/// structures in the engine use this type; the lint suite rejects bare
/// std::mutex outside this file.
///
/// Locks exist only on the cold paths — loading, planning, logging, result
/// materialization. The evaluation hot paths (strategy loops, Distribute,
/// Gather, ring push/pop) are lock-free by design and tools/lint enforces
/// that no Mutex ever appears in them.
class DCD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DCD_ACQUIRE() { mu_.lock(); }
  void Unlock() DCD_RELEASE() { mu_.unlock(); }

  // BasicLockable spelling so CondVar (condition_variable_any) can release
  // and reacquire this capability during a wait. Not for direct use.
  void lock() DCD_ACQUIRE() { mu_.lock(); }
  void unlock() DCD_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex, annotated so the analysis tracks the critical
/// section's extent. Prefer this over manual Lock/Unlock pairs.
class DCD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DCD_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() DCD_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Cold-path only, like Mutex itself:
/// the serving layer's scheduler waits here, never an evaluation worker's
/// per-iteration loop. Wait() takes the Mutex so the DCD_REQUIRES contract
/// mirrors how std::condition_variable_any releases and reacquires it.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) DCD_REQUIRES(mu) { cv_.wait(*mu); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_COMMON_MUTEX_H_
