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

/// Which index family backs the RecursiveTable merge paths (§6.2.1).
enum class MergeIndexBackend : uint8_t {
  kFlat = 0,   // Open-addressed flat structures (storage/flat_{set,map}.h)
               // with the prefetch-pipelined batch merge — the hot path.
  kBtree = 1,  // The original B+-tree indexes; kept as the Table 4 ablation
               // baseline and as the differential-fuzzing cross-check.
};

const char* MergeIndexBackendName(MergeIndexBackend backend);

/// Which rule-pipeline executor the workers run (§5.2).
enum class PipelineExecutor : uint8_t {
  kBatch = 0,  // Vectorized batch-at-a-time: columnar register banks,
               // selection vectors, prefetch-pipelined probes — the hot
               // path (runtime/batch_pipeline.h).
  kTuple = 1,  // The original depth-first tuple-at-a-time executor; kept as
               // the ablation baseline and differential-fuzzing cross-check.
};

const char* PipelineExecutorName(PipelineExecutor executor);

/// Engine-wide tuning knobs. Defaults reproduce the configuration the paper
/// evaluates (DWS with all §6 optimizations on).
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

  /// §6.2.1: merge aggregates through the recursive-table index instead of
  /// a linear re-scan.
  bool enable_aggregate_index = true;

  /// §6.2.2: constant-time existence/aggregate cache consulted before the
  /// B+-tree index.
  bool enable_existence_cache = true;

  /// §5.2.3 / Figure 7: fold min/max derivations per group inside
  /// Distribute before routing, so only each iteration's per-group best
  /// crosses worker boundaries.
  bool enable_partial_aggregation = true;

  /// §6.2.1 merge-path index family. Flat open addressing is the default
  /// hot path; the B+-tree backend survives as the ablation baseline
  /// (`--merge-index-backend=btree` reproduces the pre-flat numbers).
  MergeIndexBackend merge_index_backend = MergeIndexBackend::kFlat;

  /// §5.2 rule-pipeline executor. Batch-at-a-time is the default hot path;
  /// the tuple-at-a-time executor survives as the ablation baseline
  /// (`--pipeline-executor=tuple` reproduces the pre-batch numbers).
  PipelineExecutor pipeline_executor = PipelineExecutor::kBatch;

  /// Existence-cache slots per worker (direct-mapped).
  uint32_t existence_cache_slots = 1 << 15;

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
