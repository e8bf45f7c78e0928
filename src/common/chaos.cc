#include "common/chaos.h"

#include <chrono>
#include <sstream>
#include <thread>

namespace dcdatalog {
namespace {

std::atomic<ChaosSchedule*> g_schedule{nullptr};

/// Bumped on every install so a thread never keeps a decision stream from
/// a previous installation, even if a new schedule reuses the old one's
/// address.
std::atomic<uint64_t> g_epoch{0};

}  // namespace

/// Per-thread decision stream. Re-seeded lazily the first time the thread
/// reaches a chaos point under a given installation.
struct ChaosThreadState {
  uint64_t epoch = 0;
  Rng rng{0};
};

namespace {
thread_local ChaosThreadState t_chaos;
}  // namespace

const char* ChaosSiteName(ChaosSite site) {
  switch (site) {
    case ChaosSite::kQueuePush:
      return "queue_push";
    case ChaosSite::kQueuePop:
      return "queue_pop";
    case ChaosSite::kTermination:
      return "termination";
    case ChaosSite::kWorkerStart:
      return "worker_start";
    case ChaosSite::kStrategyLoop:
      return "strategy_loop";
    case ChaosSite::kGather:
      return "gather";
    case ChaosSite::kDeleteShard:
      return "delete_shard";
    case ChaosSite::kAggregateDelete:
      return "aggregate_delete";
    case ChaosSite::kNumSites:
      break;
  }
  return "unknown";
}

Rng& ChaosSchedule::ThreadRng() {
  const uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (t_chaos.epoch != epoch) {
    t_chaos.epoch = epoch;
    const uint32_t ordinal =
        next_ordinal_.fetch_add(1, std::memory_order_relaxed);
    // Golden-ratio spread keeps per-thread streams decorrelated while the
    // (seed, ordinal) → stream mapping stays exactly reproducible.
    t_chaos.rng =
        Rng(config_.seed ^ (0x9e3779b97f4a7c15ULL * (ordinal + 1)));
  }
  return t_chaos.rng;
}

ChaosAction ChaosSchedule::Decide(ChaosSite site) {
  (void)site;  // Sites currently share one stream; kept for biasing/stats.
  Rng& rng = ThreadRng();
  decisions_.fetch_add(1, std::memory_order_relaxed);
  const double draw = rng.NextDouble();
  if (draw < config_.yield_prob) return ChaosAction::kYield;
  if (draw < config_.yield_prob + config_.sleep_prob) {
    return ChaosAction::kSleep;
  }
  return ChaosAction::kNone;
}

void ChaosSchedule::Perturb(ChaosSite site) {
  switch (Decide(site)) {
    case ChaosAction::kNone:
      return;
    case ChaosAction::kYield:
      perturbations_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
      return;
    case ChaosAction::kSleep: {
      perturbations_.fetch_add(1, std::memory_order_relaxed);
      const uint32_t us = 1 + static_cast<uint32_t>(ThreadRng().Uniform(
                                  std::max<uint32_t>(config_.max_sleep_us, 1)));
      std::this_thread::sleep_for(std::chrono::microseconds(us));
      return;
    }
    case ChaosAction::kFail:
      return;  // Decide never returns kFail; fail points use DecideFail.
  }
}

bool ChaosSchedule::DecideFail(ChaosSite site) {
  (void)site;
  Rng& rng = ThreadRng();
  decisions_.fetch_add(1, std::memory_order_relaxed);
  if (rng.NextDouble() < config_.fail_prob) {
    forced_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::string ChaosSchedule::StatsString() const {
  std::ostringstream os;
  os << "ChaosSchedule{seed=" << config_.seed
     << ", decisions=" << decisions()
     << ", perturbations=" << perturbations()
     << ", forced_failures=" << forced_failures() << "}";
  return os.str();
}

void InstallChaosSchedule(ChaosSchedule* schedule) {
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  g_schedule.store(schedule, std::memory_order_release);
}

ChaosSchedule* CurrentChaosSchedule() {
  return g_schedule.load(std::memory_order_acquire);
}

}  // namespace dcdatalog
