#ifndef DCDATALOG_CORE_ENGINE_H_
#define DCDATALOG_CORE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/options.h"
#include "common/status.h"
#include "common/string_dict.h"
#include "common/trace.h"
#include "datalog/ast.h"
#include "planner/physical_plan.h"
#include "storage/catalog.h"
#include "storage/updates.h"

namespace dcdatalog {

/// Per-worker latency/size distributions, collected on every run (the
/// log-bucket adds are counter-cheap, so unlike tracing they need no flag).
/// Merged across SCCs; exported by WriteMetricsJson.
struct WorkerMetrics {
  LogHistogram iteration_ns;   // Wall time of each local iteration.
  LogHistogram drain_batch;    // Ring tuples consumed per non-empty drain.
};

/// Counters describing one evaluation run.
struct EvalStats {
  double seconds = 0.0;
  uint64_t num_sccs = 0;
  uint64_t total_local_iterations = 0;  // Summed over workers and SCCs.
  uint64_t max_local_iterations = 0;    // Slowest worker's count, any SCC.
  uint64_t tuples_routed = 0;           // Routed by Distribute (incl. self).
  uint64_t tuples_folded = 0;           // Removed by partial aggregation.
  uint64_t tuples_emitted = 0;          // Derivations handed to Distribute.
  uint64_t blocks_sent = 0;             // MsgBlocks pushed through rings.
  uint64_t self_loop_tuples = 0;        // Routed via the self-loop bypass.
  uint64_t merges = 0;                  // Wire tuples offered to Gather.
  uint64_t accepts = 0;                 // ... that changed a table.
  uint64_t cache_hits = 0;              // Existence-cache fast paths.
  /// Key/tuple comparisons spent probing the merge indexes — the collision
  /// resolution work of whichever merge_index_backend is active. The
  /// flat-vs-btree ablation reads differently here even when wall time is
  /// close: probe comparisons are the dependent-load chain the flat
  /// structures exist to shorten.
  uint64_t merge_probe_cmps = 0;
  /// Driving batches the batch pipeline executor ran (0 under
  /// --pipeline-executor=tuple — the ablation baseline has no batches).
  uint64_t pipeline_batches = 0;
  /// Driving rows admitted into batches after the driving scan's checks
  /// (the lanes the vectorized steps actually processed).
  uint64_t pipeline_rows_selected = 0;
  /// Cumulative time workers spent blocked in coordination — barrier spins
  /// (Global), slack waits (SSP), ω/τ waits and inactive parking (DWS).
  /// This is the quantity the coordination strategies trade off; on
  /// machines with fewer cores than workers it is the observable signal
  /// (wall time alone hides it because the OS reuses blocked slices).
  double idle_wait_seconds = 0.0;
  /// Events lost to trace-ring overwrite (0 unless tracing is on and a
  /// worker outran its ring).
  uint64_t trace_dropped = 0;
  /// Streaming-update batches this run applied (1 per ApplyUpdates call,
  /// 0 for from-scratch runs).
  uint64_t update_batches = 0;
  /// Net EDB tuples in the applied batches after set-semantics netting
  /// (inserts of absent tuples + removed stored copies).
  uint64_t delta_tuples_in = 0;
  /// Facts the Backward/Forward delete path had to re-prove: the checked
  /// set C, summed over the SCCs a deletion reached.
  uint64_t rederived_tuples = 0;
  /// Morsels a loaded worker published from its driving-set tail for idle
  /// workers to steal (docs/INTERNALS.md §11; 0 under --steal=off).
  uint64_t morsels_published = 0;
  /// Published morsels claimed and executed by a worker other than the
  /// owner (the rest were reclaimed by their owner at iteration end).
  uint64_t morsels_stolen = 0;
  /// Driving tuples executed through stolen morsels.
  uint64_t tuples_stolen = 0;
  /// Evaluation gangs that exceeded the shared WorkerPool's capacity and
  /// fell back to dedicated threads (oversubscription signal; 0 when no
  /// pool is configured or the gang fit).
  uint64_t pool_fallback_gangs = 0;

  /// Populated only when EngineOptions::enable_trace is set: the merged
  /// snapshot of every worker's trace ring, in per-worker append order.
  std::vector<TraceEvent> trace;

  /// One entry per worker (indexed by worker id), always populated.
  std::vector<WorkerMetrics> worker_metrics;

  /// Every public counter as a (name, value) pair, in declaration order.
  /// ToString and the metrics exporter are both generated from this list,
  /// so a counter listed here cannot appear in one but not the other. The
  /// coverage test in engine_test.cc stamps a distinct sentinel into every
  /// struct field and asserts each sentinel surfaces in ToString() — when
  /// adding a counter, add it to the struct, to Counters(), and to that
  /// test's sentinel list.
  std::vector<std::pair<const char*, double>> Counters() const;

  std::string ToString() const;
};

/// The DCDatalog execution engine: evaluates a compiled physical plan over
/// a catalog, SCC by SCC, running each recursive SCC with the configured
/// coordination strategy (Global / SSP / DWS). Results are materialized
/// back into the catalog under their predicate names.
class Engine {
 public:
  Engine(Catalog* catalog, EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses nothing — takes an analyzed program, plans and runs it.
  /// Calling this while an incremental session is live tears the session
  /// down first (deterministically, before any planning): the run replaces
  /// the catalog relations the retained replicas/watermarks describe, so
  /// the session could never be resumed correctly afterwards.
  Result<EvalStats> Run(const Program& program);

  /// Runs an already-built physical plan. Same incremental-session
  /// invalidation contract as Run().
  Result<EvalStats> RunPlan(const PhysicalPlan& plan);

  /// Starts an incremental session: plans `program` with per-rule update
  /// versions (delta rewrites driving newly-arrived rows of one body atom),
  /// evaluates it to fixpoint, and retains the per-worker merge structures,
  /// base indexes, and relation watermarks so later ApplyUpdates calls can
  /// re-drive from deltas instead of recomputing. Returns the initial
  /// run's stats.
  Result<EvalStats> BeginIncremental(const Program& program);

  /// Applies one batch of EDB inserts/deletes and incrementally restores
  /// the fixpoint. Inserts re-enter the retained semi-naive loop through
  /// the update rules; deletes run support-count maintenance
  /// (non-recursive SCCs) or Backward/Forward (every other SCC).
  /// Batches the planner or eligibility analysis cannot handle
  /// incrementally fall back to a transparent full recompute — either way
  /// the maintained fixpoint is identical to a from-scratch Run over the
  /// updated EDB. Requires BeginIncremental first.
  Result<EvalStats> ApplyUpdates(const ResolvedUpdateBatch& batch);

  bool incremental_active() const { return inc_ != nullptr; }

  const EngineOptions& options() const { return options_; }

 private:
  struct IncrementalState;

  /// Full evaluation of the incremental session's plan, retaining worker
  /// state into inc_. Used by BeginIncremental and by the fallback path.
  Result<EvalStats> RunRetaining();

  /// Restores the fixpoint under the batch's removals, SCC by SCC. False
  /// when Backward/Forward gave up on an SCC: the caller must recompute.
  Result<bool> RunDeletePhase(std::map<std::string, Relation>* old_copies,
                              std::map<std::string, Relation>* removed_rows,
                              EvalStats* stats);
  Status CountingDelete(size_t scc_idx,
                        std::map<std::string, Relation>* old_copies,
                        std::map<std::string, Relation>* removed_rows,
                        EvalStats* stats);
  Result<bool> BackwardForwardDelete(
      size_t scc_idx, std::map<std::string, Relation>* old_copies,
      std::map<std::string, Relation>* removed_rows, EvalStats* stats);

  Catalog* catalog_;
  EngineOptions options_;
  std::unique_ptr<IncrementalState> inc_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_ENGINE_H_
