#ifndef DCDATALOG_CORE_STRATEGY_H_
#define DCDATALOG_CORE_STRATEGY_H_

// The coordination strategies of paper §4, picked by the switch in
// SccExecutor::Run. Each has a constructor (n, options) for its shared
// state, Begin (per worker, after phase 0), Next (wait, then answer) and
// AfterIteration. Waits drain the worker's rings; async ones see aborts.

#include <chrono>
#include <thread>

#include "common/hot_path.h"
#include "core/dws_controller.h"
#include "core/scc_executor.h"

namespace dcdatalog {

/// A strategy's answer at an iteration boundary.
enum class Turn : uint8_t {
  kIterate,  // Run one local iteration.
  kGather,   // Gather again, then ask again.
  kStop,     // Global fixpoint (or abort): leave the loop.
};

using WorkerContext = SccExecutor::WorkerContext;
using IdleScope = SccExecutor::IdleScope;

/// Algorithm 1: a barrier after every global iteration. Fast workers idle
/// until the slowest arrives — the overhead DWS exists to remove.
class GlobalStrategy {
 public:
  GlobalStrategy(uint32_t n, const EngineOptions&) : barrier_(n) {}

  /// Everyone finishes the base phase before round 1.
  void Begin(SccExecutor* exec, WorkerContext* ctx) {
    Barrier(exec, ctx, [] {});
  }

  DCD_HOT_ROOT Turn Next(SccExecutor* exec, WorkerContext* ctx) {
    const uint64_t delta = exec->DeltaTotal(*ctx);
    delta_sum_.fetch_add(delta, std::memory_order_acq_rel);
    Barrier(exec, ctx, [this, exec] {
      // The abort check lives in the serial section so every worker
      // leaves the barrier protocol in the same round.
      done_.store(delta_sum_.load(std::memory_order_acquire) == 0 ||
                      exec->Aborted(),
                  std::memory_order_release);
      delta_sum_.store(0, std::memory_order_release);
    });
    if (done_.load(std::memory_order_acquire)) return Turn::kStop;
    if (delta > 0) return Turn::kIterate;
    Barrier(exec, ctx, [] {});  // An idle worker still closes the round.
    return Turn::kGather;
  }

  DCD_HOT_ROOT void AfterIteration(SccExecutor* exec, WorkerContext* ctx,
                                   const SccExecutor::IterationSample&) {
    Barrier(exec, ctx, [] {});
  }

 private:
  template <typename Serial>
  void Barrier(SccExecutor* exec, WorkerContext* ctx, Serial&& serial) {
    IdleScope idle(ctx, TraceEventKind::kBarrierWait);
    barrier_.Wait(serial, [exec, ctx] { exec->GatherAll(ctx); });
  }

  SpinBarrier barrier_;
  std::atomic<uint64_t> delta_sum_{0};
  std::atomic<bool> done_{false};
};

/// Algorithm 2: the Dynamic Weight-based Strategy. After gathering, a
/// worker with a small delta (0 < |δ| < ω) waits up to τ for more tuples
/// before iterating; ω and τ come from the queueing model, which every
/// drain and every iteration feed.
class DwsStrategy {
 public:
  /// Upper bound on one slice of the τ wait.
  static constexpr std::chrono::microseconds kMaxWaitSlice{200};

  DwsStrategy(uint32_t n, const EngineOptions& options)
      : n_(n), options_(options), workers_(n) {}

  /// Builds the worker's model on its own thread (first-touch local).
  void Begin(SccExecutor*, WorkerContext* ctx) {
    auto& me = workers_[ctx->wid];
    me = std::make_unique<Worker>(DwsController(n_, options_),
                                  std::vector<uint64_t>(n_));
    ctx->arrivals = &me->model;
  }

  DCD_HOT_ROOT Turn Next(SccExecutor* exec, WorkerContext* ctx) {
    if (exec->Aborted()) return Turn::kStop;
    const DwsController& model = workers_[ctx->wid]->model;
    uint64_t delta = exec->DeltaTotal(*ctx);
    if (delta == 0) {
      if (!exec->InactiveWait(ctx)) return Turn::kStop;
      delta = exec->DeltaTotal(*ctx);
    }
    // Lines 5–8: bounded wait while the delta is small. The enclosing
    // `if` keeps rounds that sail straight through (|δ| ≥ ω) from
    // emitting zero-length kDwsWait spans.
    bool waited = false;
    if (delta > 0 && delta < static_cast<uint64_t>(model.omega())) {
      const int64_t wait_start = MonotonicNanos();
      IdleScope idle(ctx, TraceEventKind::kDwsWait);
      waited = true;
      // τ is already clamped to the deadlock-avoidance timeout.
      while (delta > 0 && delta < static_cast<uint64_t>(model.omega()) &&
             !exec->Aborted()) {
        if (MonotonicNanos() - wait_start >= model.tau_ns()) break;
        // The τ-capped sleep IS DWS's coordination mechanism, not
        // incidental blocking — the strategy trades a bounded wait for a
        // bigger batch.
        DCD_COLD_CALL("DWS τ-capped wait slice is the strategy itself, Algorithm 2 line 7");
        SleepSlice();
        exec->GatherAll(ctx);
        delta = exec->DeltaTotal(*ctx);
      }
    }
    if (delta == 0) return Turn::kGather;
    // Line 12: refresh ω and τ from current statistics, then iterate.
    UpdateModel(exec, ctx, waited);
    return Turn::kIterate;
  }

  DCD_HOT_ROOT void AfterIteration(SccExecutor*, WorkerContext* ctx,
                                   const SccExecutor::IterationSample& s) {
    workers_[ctx->wid]->model.OnIteration(s.ns, s.tuples);
  }

 private:
  struct Worker {
    DwsController model;
    std::vector<uint64_t> sizes;  // Update's buffer occupancies, reused.
  };

  /// Out of line, so the binary audit sees a call, not an inlined sleep.
  DCD_COLD_FN static void SleepSlice() {
    // dcd-lint: allow(hot-path-mutex): DWS bounded wait, Algorithm 2 line 7
    std::this_thread::sleep_for(kMaxWaitSlice);
  }

  void UpdateModel(SccExecutor* exec, WorkerContext* ctx, bool waited) {
    Worker& me = *workers_[ctx->wid];
    for (uint32_t j = 0; j < n_; ++j) {
      // The tuple-granular occupancy mirror, NOT ring.SizeApprox(): the
      // queueing model's ω/τ are calibrated in tuples, and a block-count
      // reading would understate pending work by the packing factor.
      me.sizes[j] = exec->Queue(j, ctx->wid).tuples.load(
          std::memory_order_relaxed);
    }
    me.model.Update(me.sizes);
    if (!ctx->ring.enabled()) return;
    // Decision telemetry: the freshly recomputed model state, plus whether
    // this round's wait gate actually held the worker back (proceed=false)
    // or let it sail straight into the iteration (proceed=true).
    const int64_t now = MonotonicNanos();
    const DwsController& m = me.model;
    ctx->ring.Append({.kind = TraceEventKind::kDwsDecision,
                      .proceed = !waited, .worker = ctx->wid,
                      .scc = exec->scc_ordinal(), .start_ns = now,
                      .end_ns = now, .omega = m.omega(), .rho = m.rho(),
                      .lambda = m.lambda(), .mu = m.mu(),
                      .tau_ns = m.tau_ns()});
  }

  const uint32_t n_;
  const EngineOptions& options_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_STRATEGY_H_
