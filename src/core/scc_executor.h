#ifndef DCDATALOG_CORE_SCC_EXECUTOR_H_
#define DCDATALOG_CORE_SCC_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/trace.h"
#include "concurrent/barrier.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "core/engine.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "runtime/distributor.h"
#include "runtime/message.h"
#include "runtime/recursive_table.h"

namespace dcdatalog {

class DwsController;

struct alignas(64) PaddedU64 { std::atomic<uint64_t> v{0}; };

/// One inter-worker ring: a block-granular SPSC queue plus a tuple-granular
/// occupancy mirror. The mirror exists because DWS's queueing model (ω/τ)
/// reasons about tuples, not blocks — SizeApprox on the ring counts blocks,
/// which would understate pending work by up to ~2 orders of magnitude.
struct BlockQueue {
  explicit BlockQueue(uint32_t capacity_blocks) : ring(capacity_blocks) {}

  SpscQueue<MsgBlock> ring;
  /// Producer adds each pushed block's tuple count; the consumer subtracts
  /// on drain. Relaxed ordering: statistics only, never a protocol input.
  std::atomic<uint64_t> tuples{0};
};

/// Wiring between one SccExecutor run and the engine's incremental session
/// state (`retained` and `clock` are always set). The executor hands its
/// per-worker replica tables back to the engine after the run (instead of
/// dropping them), so the next update batch can adopt them and continue
/// from the previous fixpoint.
struct IncrementalHooks {
  /// Per-worker replica sets for this SCC, owned by the engine between
  /// runs. Sized num_workers by the caller.
  std::vector<std::vector<std::unique_ptr<RecursiveTable>>>* retained =
      nullptr;
  /// Set in update mode, which adopts the retained tables, drives the
  /// update rules over rows past these watermarks (relation -> row count
  /// before this batch's new rows and moved groups; missing means "nothing
  /// new") and leaves materialization to the engine (watermark-append).
  const std::map<std::string, uint64_t>* watermarks = nullptr;
  /// The session's stamp clock: every worker's clock starts there, so a
  /// batch stamps above every row the session already holds, and the run
  /// leaves its highest stamp there.
  uint32_t* clock = nullptr;
};

/// Runs fn(0) .. fn(n-1) on the engine's thread source: a gang of the
/// shared resident pool in serving mode (so concurrent sessions time-share
/// the cores), dedicated threads for one-shot runs.
void RunGang(const EngineOptions& options, uint32_t n,
             const std::function<void(uint32_t)>& fn);

/// Runs one SCC of the plan with n workers, around one fixpoint loop that
/// asks the configured strategy (core/strategy.h) for every next step.
class SccExecutor {
 public:
  SccExecutor(const PhysicalPlan& plan, const SccPlan& scc, Catalog* catalog,
              BaseIndexSet* base_indexes, const EngineOptions& options,
              uint32_t scc_ordinal, const IncrementalHooks* hooks = nullptr);

  Status Run(EvalStats* stats);

  /// Everything one worker thread owns while the SCC runs. Built on its
  /// own thread (first-touch local), read by the executor after the join.
  struct WorkerContext {
    WorkerContext(SccExecutor* e, uint32_t w)
        : wid(w), exec(e), clock(e->start_clock_),
          ring(e->options_.enable_trace ? e->options_.trace_ring_capacity
                                        : 0) {}

    uint32_t wid = 0;
    SccExecutor* exec = nullptr;
    /// This worker's replica partitions, indexed by replica id.
    std::vector<std::unique_ptr<RecursiveTable>> replicas;
    /// Batch-at-a-time executor state (columnar banks, selection vectors);
    /// reused across rules and iterations so steady-state batches never
    /// allocate.
    BatchPipelineRunner batch_runner;
    /// The pipelines' catalog, index and replica bindings, set up once in
    /// StartWorker; its scan-relation table keeps its capacity across
    /// rules and iterations.
    PipelineContext pipeline;
    /// Per replica: the row ids one local iteration drives, swapped with
    /// the table's delta (RecursiveTable::TakeDelta) so both keep their
    /// capacity.
    std::vector<std::vector<uint32_t>> delta_scratch;
    std::unique_ptr<Distributor> distributor;
    /// DWS's arrival model, fed by every drain; null under Global.
    DwsController* arrivals = nullptr;
    /// Per replica: wire tuples awaiting the next merge, packed back to
    /// back at the replica's wire arity (self-loop tuples and drained ring
    /// blocks alike).
    std::vector<std::vector<uint64_t>> gather_scratch;
    /// The running delta rule's PhysicalRule::local_replica, read by
    /// LocalEmitThunk.
    int local_replica = -1;
    /// Tuples local rules merged without Distribute (counted as routed
    /// through the self-loop, like the tuples Distribute keeps here).
    uint64_t local_tuples = 0;
    std::vector<MsgBlock> block_scratch;
    uint64_t local_iter = 0;
    int64_t idle_ns = 0;
    /// Lamport clock: the highest stamp this worker's merges have written
    /// (see GatherAll).
    uint32_t clock = 0;
    /// Per-worker event ring: single-writer (this worker), snapshotted by
    /// the executor after the join. Disabled (capacity 0, no allocation)
    /// unless EngineOptions::enable_trace is set.
    TraceRing ring;
    /// Always-on distributions; log-bucket adds are as cheap as the plain
    /// counters above.
    WorkerMetrics metrics;

    void Span(TraceEventKind kind, int64_t start_ns, int64_t end_ns,
              uint64_t tuples) {
      if (!ring.enabled()) return;
      ring.Append({.kind = kind, .worker = wid, .scc = exec->scc_ordinal_,
                   .start_ns = start_ns, .end_ns = end_ns, .tuples = tuples});
    }

    void Instant(TraceEventKind kind, uint64_t tuples) {
      if (!ring.enabled()) return;  // Skip the clock read, not just the append.
      const int64_t now = MonotonicNanos();
      Span(kind, now, now, tuples);
    }
  };

  /// RAII idle-accounting span: on scope exit, charges the elapsed time to
  /// the worker's idle-wait total and emits one wait-span trace event of
  /// the given kind. Every wait uses it, so the accounting cannot drift.
  class IdleScope {
   public:
    IdleScope(WorkerContext* ctx, TraceEventKind kind)
        : ctx_(ctx), kind_(kind), start_(MonotonicNanos()) {}
    IdleScope(const IdleScope&) = delete;
    IdleScope& operator=(const IdleScope&) = delete;
    ~IdleScope() {
      const int64_t now = MonotonicNanos();
      ctx_->idle_ns += now - start_;
      ctx_->Span(kind_, start_, now, 0);
    }

   private:
    WorkerContext* ctx_;
    const TraceEventKind kind_;
    const int64_t start_;
  };

  /// What one local iteration did: the DWS service sample.
  struct IterationSample {
    int64_t ns = 0;
    uint64_t tuples = 0;
  };

  uint32_t scc_ordinal() const { return scc_ordinal_; }
  bool Aborted() const { return aborted_.load(std::memory_order_acquire); }
  uint64_t DeltaTotal(const WorkerContext& ctx) const;
  uint64_t GatherAll(WorkerContext* ctx);
  bool InactiveWait(WorkerContext* ctx);
  BlockQueue& Queue(uint32_t from, uint32_t to) {
    return *queues_[static_cast<size_t>(from) * n_ + to];
  }

 private:
  bool UpdateMode() const {
    return hooks_ != nullptr && hooks_->watermarks != nullptr;
  }

  template <typename Strategy>
  void RunWith();
  // Out of line: the binary audit (check_hot_symbols.py) audits its body.
  template <typename Strategy>
  [[gnu::noinline]] void Fixpoint(WorkerContext* ctx, Strategy* strategy);
  void StartWorker(uint32_t wid, WorkerContext* ctx);
  static void EmitBatchThunk(void* c, const HeadSpec& head,
                             const uint64_t* wires, uint32_t count,
                             uint32_t wire_arity);
  static void LocalEmitThunk(void* c, const HeadSpec& head,
                             const uint64_t* wires, uint32_t count,
                             uint32_t wire_arity);
  static void DistSinkThunk(void* c, uint32_t dest, const MsgBlock& block);
  static void DistSelfSinkThunk(void* c, uint32_t replica,
                                const uint64_t* wire, uint32_t arity);
  void RunBaseRules(WorkerContext* ctx);
  void RunUpdateRules(WorkerContext* ctx);
  void PushWithBackpressure(WorkerContext* ctx, uint32_t dest,
                            const MsgBlock& block);
  IterationSample LocalIteration(WorkerContext* ctx);
  void MaterializeResults();
  void CollectStats(EvalStats* stats);

  const IncrementalHooks* hooks_ = nullptr;
  const PhysicalPlan& plan_;
  const SccPlan& scc_;
  Catalog* catalog_;
  BaseIndexSet* base_indexes_;
  const EngineOptions& options_;
  const uint32_t n_;
  const uint32_t scc_ordinal_ = 0;
  uint32_t per_queue_blocks_ = 8;

  std::vector<std::unique_ptr<BlockQueue>> queues_;
  TerminationDetector detector_;
  /// Publishes every worker's inbound rings before any producer pushes.
  SpinBarrier start_barrier_;
  /// Per worker, single writer: its clock as of its last block push.
  std::vector<PaddedU64> published_clocks_;
  uint32_t start_clock_ = 0;
  std::atomic<bool> aborted_{false};

  std::vector<std::unique_ptr<WorkerContext>> contexts_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_SCC_EXECUTOR_H_
