#ifndef DCDATALOG_COMMON_CHAOS_H_
#define DCDATALOG_COMMON_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/random.h"

namespace dcdatalog {

/// Schedule-chaos injection for the differential fuzz harness
/// (tools/dcd_fuzz, docs/INTERNALS.md §6). Injection points sit on the
/// engine's coordination-sensitive paths — ring push/pop, termination
/// rounds, worker start-up, the strategy loops — and, when a ChaosSchedule
/// is installed, turn into seeded yields, short sleeps, and forced
/// queue-full events that perturb thread interleavings without changing
/// any computed result.
///
/// Compile-time gating: points expand to nothing unless DCD_CHAOS_ENABLED
/// is 1. The default follows NDEBUG — debug (and sanitizer) builds carry
/// the hooks, release builds compile them out entirely so the hot paths
/// are byte-identical to a tree without this header. Configure with
/// -DDCDATALOG_CHAOS=ON to force the hooks into an optimized build for
/// fuzzing.
#if !defined(DCD_CHAOS_ENABLED)
#if defined(NDEBUG)
#define DCD_CHAOS_ENABLED 0
#else
#define DCD_CHAOS_ENABLED 1
#endif
#endif

/// Where a chaos point sits. Sites let a schedule bias layers differently
/// (e.g. fail pushes often but only delay termination rounds).
enum class ChaosSite : uint8_t {
  kQueuePush = 0,    // SpscQueue::TryPush (also the forced-full fail point).
  kQueuePop,         // SpscQueue::TryPop / PopBatch.
  kTermination,      // TerminationDetector::CheckTermination round.
  kWorkerStart,      // RunWorkers thread entry (staggers start-up).
  kStrategyLoop,     // Top of the fixpoint loop body, every strategy.
  kGather,           // SccExecutor::GatherAll entry.
  kDelete,           // The delete's candidate pop (core/delete.cc).
  kNumSites,
};

const char* ChaosSiteName(ChaosSite site);

/// What one decision at a chaos point resolved to.
enum class ChaosAction : uint8_t { kNone = 0, kYield, kSleep, kFail };

/// Tuning knobs for one schedule. Probabilities are per decision.
struct ChaosConfig {
  uint64_t seed = 0;
  double yield_prob = 0.05;
  double sleep_prob = 0.01;
  uint32_t max_sleep_us = 20;  // Sleeps draw uniformly from [1, max].
  /// Probability that a TryPush is forced to report a full ring, driving
  /// the producer through its backpressure/drain path.
  double fail_prob = 0.0;

  /// A preset that perturbs aggressively; used by the stress tests.
  static ChaosConfig Aggressive(uint64_t seed) {
    ChaosConfig c;
    c.seed = seed;
    c.yield_prob = 0.20;
    c.sleep_prob = 0.05;
    c.max_sleep_us = 50;
    c.fail_prob = 0.10;
    return c;
  }
};

/// A seeded source of perturbation decisions. Each thread that reaches a
/// chaos point gets its own decision stream: the stream is seeded from
/// (config.seed, thread registration ordinal), so a single thread — or any
/// fixed thread-registration order — replays the exact same decision
/// sequence for the same seed. Decisions are pure PRNG draws; executing
/// them (yield/sleep) happens in Perturb.
class ChaosSchedule {
 public:
  explicit ChaosSchedule(ChaosConfig config) : config_(config) {}

  ChaosSchedule(const ChaosSchedule&) = delete;
  ChaosSchedule& operator=(const ChaosSchedule&) = delete;

  const ChaosConfig& config() const { return config_; }

  /// Draws the next decision for the calling thread at `site`. Does not
  /// execute it. kFail is only drawn at fail points (DecideFail).
  ChaosAction Decide(ChaosSite site);

  /// Draws and executes one decision (yield / bounded sleep).
  void Perturb(ChaosSite site);

  /// Fail-point draw: true forces the caller to simulate failure (a full
  /// ring). Independent stream position from Decide — it is just the next
  /// draw of the thread's stream against fail_prob.
  bool DecideFail(ChaosSite site);

  uint64_t decisions() const {
    return decisions_.load(std::memory_order_relaxed);
  }
  uint64_t perturbations() const {
    return perturbations_.load(std::memory_order_relaxed);
  }
  uint64_t forced_failures() const {
    return forced_failures_.load(std::memory_order_relaxed);
  }

  std::string StatsString() const;

 private:
  friend struct ChaosThreadState;
  Rng& ThreadRng();

  const ChaosConfig config_;
  std::atomic<uint32_t> next_ordinal_{0};
  std::atomic<uint64_t> decisions_{0};
  std::atomic<uint64_t> perturbations_{0};
  std::atomic<uint64_t> forced_failures_{0};
};

/// Installs `schedule` as the process-wide chaos source consulted by every
/// DCD_CHAOS_POINT. Pass nullptr to uninstall. The schedule is borrowed,
/// not owned; it must outlive its installation. Install/uninstall around —
/// never during — an evaluation.
void InstallChaosSchedule(ChaosSchedule* schedule);

/// Currently installed schedule, or nullptr. Acquire load; cheap enough
/// for debug-build hot paths, compiled out entirely in release.
ChaosSchedule* CurrentChaosSchedule();

}  // namespace dcdatalog

#if DCD_CHAOS_ENABLED

/// A perturbation point: possibly yields or sleeps, per the installed
/// schedule. No-op when no schedule is installed.
#define DCD_CHAOS_POINT(site)                                          \
  do {                                                                 \
    ::dcdatalog::ChaosSchedule* _dcd_chaos =                           \
        ::dcdatalog::CurrentChaosSchedule();                           \
    if (_dcd_chaos != nullptr)                                         \
      _dcd_chaos->Perturb(::dcdatalog::ChaosSite::site);               \
  } while (false)

/// A fail point: evaluates to true when the schedule forces the caller to
/// simulate failure (e.g. report a full ring). False when uninstalled.
#define DCD_CHAOS_FAIL(site)                                           \
  [] {                                                                 \
    ::dcdatalog::ChaosSchedule* _dcd_chaos =                           \
        ::dcdatalog::CurrentChaosSchedule();                           \
    return _dcd_chaos != nullptr &&                                    \
           _dcd_chaos->DecideFail(::dcdatalog::ChaosSite::site);       \
  }()

#else

#define DCD_CHAOS_POINT(site) ((void)0)
#define DCD_CHAOS_FAIL(site) false

#endif  // DCD_CHAOS_ENABLED

#endif  // DCDATALOG_COMMON_CHAOS_H_
