#ifndef DCDATALOG_COMMON_OPTIONS_H_
#define DCDATALOG_COMMON_OPTIONS_H_

#include <cstdint>
#include <string>

namespace dcdatalog {

class WorkerPool;

/// Which parallel coordination strategy the evaluation loop runs (paper §4).
enum class CoordinationMode : uint8_t {
  kGlobal = 0,  // Algorithm 1: barrier after every global iteration.
  kSsp = 1,     // Stale-synchronous: fast workers may run `ssp_slack` ahead.
  kDws = 2,     // Algorithm 2: dynamic weight-based strategy (the paper's).
};

const char* CoordinationModeName(CoordinationMode mode);

/// Engine-wide tuning knobs. Defaults reproduce the configuration the paper
/// evaluates (DWS coordination).
struct EngineOptions {
  /// Worker (thread) count; 0 means std::thread::hardware_concurrency().
  uint32_t num_workers = 0;

  CoordinationMode coordination = CoordinationMode::kDws;

  /// SSP slack s: a worker may be at most this many local iterations ahead
  /// of the slowest worker (paper §4.1; the evaluation uses s = 5).
  uint32_t ssp_slack = 5;

  /// DWS deadlock-avoidance timeout (Algorithm 2 line 8): a waiting worker
  /// resumes unconditionally after this many microseconds.
  uint32_t dws_timeout_us = 2000;

  /// Upper bound DWS places on a single wait slice, microseconds.
  uint32_t dws_max_wait_slice_us = 200;

  /// Per-(producer, consumer) SPSC ring capacity in tuples (§6.1).
  uint32_t spsc_capacity = 1 << 14;

  /// Safety valve for non-terminating programs; 0 = unlimited.
  uint64_t max_global_iterations = 0;

  /// Convergence threshold for sum-aggregates in recursion (PageRank):
  /// a contribution that changes a group's sum by <= epsilon does not
  /// re-enter the delta.
  double sum_epsilon = 1e-9;

  /// Record per-worker execution trace events (iteration/wait spans, drain
  /// and block-push instants, DWS decision telemetry) into per-worker trace
  /// rings, surfaced as EvalStats::trace and exportable as Chrome
  /// trace-event JSON (core/trace_export.h). Off: the rings are not even
  /// allocated and each would-be event costs one predictable branch.
  bool enable_trace = false;

  /// Per-worker trace ring capacity in events, rounded up to a power of
  /// two. The ring overwrites oldest on overflow (EvalStats::trace_dropped
  /// counts the loss), so a long run keeps its most recent window instead
  /// of growing without bound.
  uint32_t trace_ring_capacity = 1 << 14;

  /// Shared resident thread pool to schedule evaluation gangs on (not
  /// owned; nullptr = spawn dedicated threads per run, the one-shot
  /// `dcd run` behavior). The serving path points every session's engine
  /// at one pool so concurrent queries share the machine's cores instead
  /// of oversubscribing them. The engine's worker-count contract is
  /// unchanged — all num_workers gang members run concurrently either way.
  WorkerPool* worker_pool = nullptr;

  /// Validated copy with num_workers resolved to a concrete count.
  EngineOptions Resolved() const;

  std::string ToString() const;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_COMMON_OPTIONS_H_
