#ifndef DCDATALOG_COMMON_TIMER_H_
#define DCDATALOG_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace dcdatalog {

/// Monotonic wall-clock stopwatch. Start() resets; Elapsed*() reads without
/// stopping, so a single timer can bracket several phases.
class WallTimer {
 public:
  WallTimer() { Start(); }

  void Start() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Nanoseconds since an unspecified monotonic epoch; cheap enough for the
/// per-tuple-batch arrival timestamps the DWS statistics need.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace dcdatalog

#endif  // DCDATALOG_COMMON_TIMER_H_
