#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/affinity.h"
#include "common/chaos.h"
#include "common/hash.h"
#include "common/hot_path.h"
#include "common/logging.h"
#include "common/timer.h"
#include "concurrent/barrier.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "concurrent/worker_pool.h"
#include "core/delete.h"
#include "core/dws_controller.h"
#include "datalog/analysis.h"
#include "planner/logical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "runtime/distributor.h"
#include "runtime/message.h"
#include "runtime/recursive_table.h"

namespace dcdatalog {
namespace {

struct alignas(64) PaddedU64 {
  std::atomic<uint64_t> v{0};
};

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
/// state. With `retained` set, the executor hands its per-worker replica
/// tables back to the engine after the run (instead of dropping them), so
/// the next update batch can adopt them and continue from the previous
/// fixpoint.
struct IncrementalHooks {
  /// Per-worker replica sets for this SCC, owned by the engine between
  /// runs. Sized num_workers by the caller.
  std::vector<std::vector<std::unique_ptr<RecursiveTable>>>* retained =
      nullptr;
  /// Adopt the retained tables (update mode) instead of building fresh
  /// ones. Each worker rebinds the tables' debug writer affinity to itself.
  bool adopt = false;
  /// Phase 0 drives the SCC's update rules over rows past the relation
  /// watermarks instead of the base rules over whole relations, and
  /// materialization is left to the engine (watermark-append).
  bool update_mode = false;
  /// Relation name -> row count before this batch's new rows (an
  /// aggregate's changed groups are moved past it too). Missing entries
  /// mean "nothing new".
  const std::map<std::string, uint64_t>* watermarks = nullptr;
  /// The session's stamp clock: every worker's clock starts there, so a
  /// batch stamps above every row the session already holds, and the run
  /// leaves its highest stamp there.
  uint32_t* clock = nullptr;
};

/// Runs fn(0) .. fn(n-1) on the engine's thread source: a gang of the
/// shared resident pool in serving mode (so concurrent sessions time-share
/// the cores), dedicated threads for one-shot runs.
void RunGang(const EngineOptions& options, uint32_t n, EvalStats* stats,
             const std::function<void(uint32_t)>& fn) {
  if (options.worker_pool != nullptr) {
    if (n > options.worker_pool->capacity()) ++stats->pool_fallback_gangs;
    options.worker_pool->Run(n, fn);
  } else {
    RunWorkers(n, fn);
  }
}

/// Runs one SCC of the plan with n workers under the configured strategy.
class SccExecutor {
 public:
  SccExecutor(const PhysicalPlan& plan, const SccPlan& scc, Catalog* catalog,
              BaseIndexSet* base_indexes, const EngineOptions& options,
              uint32_t scc_ordinal = 0, const IncrementalHooks* hooks = nullptr)
      : hooks_(hooks),
        plan_(plan),
        scc_(scc),
        catalog_(catalog),
        base_indexes_(base_indexes),
        options_(options),
        n_(options.num_workers),
        scc_ordinal_(scc_ordinal),
        detector_(options.num_workers),
        barrier_(options.num_workers),
        ssp_iters_(options.num_workers),
        published_clocks_(options.num_workers) {
    if (hooks != nullptr && hooks->clock != nullptr) {
      start_clock_ = *hooks->clock;
    }
    for (PaddedU64& c : published_clocks_) {
      c.v.store(start_clock_, std::memory_order_relaxed);
    }
    // Per-queue capacity shrinks as the worker grid grows so the n² rings
    // stay within a sane memory budget. spsc_capacity is expressed in
    // tuples; a block packs ~kMsgBlockWords/2 binary tuples, so dividing by
    // that keeps the tuple capacity in the configured ballpark.
    const uint32_t per_queue_tuples = std::max<uint32_t>(
        512, options_.spsc_capacity / std::max<uint32_t>(1, n_ / 8));
    per_queue_blocks_ =
        std::max<uint32_t>(8, per_queue_tuples / (kMsgBlockWords / 2));
    // Rings are NOT built here: each worker constructs its own inbound
    // column at WorkerMain start, so the n² ring allocations (the
    // value-semantics MsgBlock slots, the bulk of the grid's memory) run in
    // parallel across the gang instead of serially on this thread; the
    // startup barrier publishes them before any producer can push.
    queues_.resize(static_cast<size_t>(n_) * n_);
    worker_replicas_.resize(n_);
    worker_stats_.resize(n_);
  }

  Status Run(EvalStats* stats) {
    RunGang(options_, n_, stats, [this](uint32_t wid) { WorkerMain(wid); });
    // Relaxed: the gang joined every worker, which already orders their
    // writes before this read.
    if (aborted_.load(std::memory_order_relaxed)) {
      return Status::ResourceExhausted(
          "evaluation exceeded max_global_iterations (" +
          std::to_string(options_.max_global_iterations) + ")");
    }
    // Update mode appends only the new rows; the engine does that from the
    // retained tables' watermarks, so the full rewrite here is skipped.
    if (hooks_ == nullptr || !hooks_->update_mode) MaterializeResults();
    CollectStats(stats);
    if (hooks_ != nullptr && hooks_->clock != nullptr) {
      for (const WorkerStats& ws : worker_stats_) {
        *hooks_->clock = std::max(*hooks_->clock, ws.clock);
      }
    }
    if (hooks_ != nullptr && hooks_->retained != nullptr) {
      for (uint32_t w = 0; w < n_; ++w) {
        (*hooks_->retained)[w] = std::move(worker_replicas_[w]);
      }
    }
    return Status::OK();
  }

 private:
  struct WorkerStats {
    std::vector<TraceEvent> trace;  // Ring snapshot, taken after the join.
    uint64_t trace_dropped = 0;
    WorkerMetrics metrics;
    uint64_t local_iterations = 0;
    uint64_t tuples_routed = 0;
    uint64_t tuples_folded = 0;
    uint64_t tuples_emitted = 0;
    uint64_t blocks_sent = 0;
    uint64_t self_loop_tuples = 0;
    uint64_t merges = 0;
    uint64_t accepts = 0;
    uint64_t merge_probe_cmps = 0;
    uint64_t pipeline_batches = 0;
    uint64_t pipeline_rows_selected = 0;
    int64_t idle_ns = 0;
    uint32_t clock = 0;
  };

  /// Everything one worker thread owns while the SCC runs.
  struct WorkerContext {
    uint32_t wid = 0;
    SccExecutor* exec = nullptr;
    std::vector<std::unique_ptr<RecursiveTable>>* replicas = nullptr;
    /// Batch-at-a-time executor state (columnar banks, selection vectors);
    /// reused across rules and iterations so steady-state batches never
    /// allocate.
    BatchPipelineRunner batch_runner;
    std::unique_ptr<Distributor> distributor;
    DwsController dws;
    /// Per replica: wire tuples awaiting the next merge, packed back to
    /// back at the replica's wire arity (self-loop tuples and drained ring
    /// blocks alike).
    std::vector<std::vector<uint64_t>> gather_scratch;
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
              uint64_t tuples, uint32_t scc) {
      if (!ring.enabled()) return;
      TraceEvent ev;
      ev.kind = kind;
      ev.worker = wid;
      ev.scc = scc;
      ev.start_ns = start_ns;
      ev.end_ns = end_ns;
      ev.tuples = tuples;
      ring.Append(ev);
    }

    void Instant(TraceEventKind kind, uint64_t tuples, uint32_t scc) {
      if (!ring.enabled()) return;  // Skip the clock read, not just the append.
      const int64_t now = MonotonicNanos();
      Span(kind, now, now, tuples, scc);
    }

    WorkerContext(uint32_t n, const EngineOptions& options)
        : dws(n, options),
          ring(options.enable_trace ? options.trace_ring_capacity : 0) {}
  };

  /// RAII idle-accounting span: on scope exit, charges the elapsed time to
  /// the worker's idle-wait total and emits one wait-span trace event of
  /// the given kind (which coordination mechanism blocked the worker).
  /// Shared by all three strategy loops and InactiveWait so the accounting
  /// cannot drift between them.
  class IdleScope {
   public:
    IdleScope(const SccExecutor* exec, WorkerContext* ctx,
              TraceEventKind kind)
        : exec_(exec), ctx_(ctx), kind_(kind), start_(MonotonicNanos()) {}
    IdleScope(const IdleScope&) = delete;
    IdleScope& operator=(const IdleScope&) = delete;
    ~IdleScope() {
      const int64_t now = MonotonicNanos();
      ctx_->idle_ns += now - start_;
      ctx_->Span(kind_, start_, now, 0, exec_->scc_ordinal_);
    }

   private:
    const SccExecutor* exec_;
    WorkerContext* ctx_;
    const TraceEventKind kind_;
    const int64_t start_;
  };

  BlockQueue& Queue(uint32_t from, uint32_t to) {
    return *queues_[static_cast<size_t>(from) * n_ + to];
  }

  void WorkerMain(uint32_t wid) {
    // Worker w builds its own inbound column (queues_[j*n + w] for all j),
    // so the gang allocates the n² rings — each owns a 2 KiB block array —
    // in parallel. The barrier publishes the unique_ptr stores (release on
    // arrival, acquire on departure) before any producer can route a tuple.
    for (uint32_t j = 0; j < n_; ++j) {
      queues_[static_cast<size_t>(j) * n_ + wid] =
          std::make_unique<BlockQueue>(per_queue_blocks_);
    }
    barrier_.Wait();

    WorkerContext ctx(n_, options_);
    ctx.wid = wid;
    ctx.exec = this;
    ctx.clock = start_clock_;
    ctx.Instant(TraceEventKind::kSccBegin, 0, scc_ordinal_);

    // Build this worker's replica partitions (first-touch local), or adopt
    // the incremental session's retained tables and continue from the
    // previous fixpoint.
    auto& replicas = worker_replicas_[wid];
    if (hooks_ != nullptr && hooks_->adopt) {
      replicas = std::move((*hooks_->retained)[wid]);
      for (auto& table : replicas) {
        table->RebindWriter();
        table->ResetStats();
      }
    } else {
      for (const ReplicaSpec& spec : scc_.replicas) {
        replicas.push_back(std::make_unique<RecursiveTable>(
            spec.predicate, plan_.schemas.at(spec.predicate),
            plan_.agg_specs.at(spec.predicate), spec.partition_col,
            spec.needs_join_index, options_));
      }
    }
    ctx.replicas = &replicas;
    ctx.gather_scratch.resize(replicas.size());

    // EDB cardinality hints: presize each replica for roughly the rows its
    // base rules will feed it (driving-relation sizes, hash-partitioned
    // across n workers) so the first iterations of a TC-style run don't pay
    // growth rehashes. Setup path — the locked Catalog is fine here.
    // Adopted tables are already sized for the previous fixpoint.
    if (hooks_ == nullptr || !hooks_->adopt) {
      for (size_t r = 0; r < scc_.replicas.size(); ++r) {
        const ReplicaSpec& spec = scc_.replicas[r];
        uint64_t hint = 0;
        for (const PhysicalRule& rule : scc_.base_rules) {
          if (rule.head.predicate != spec.predicate) continue;
          if (rule.driving_is_unit || rule.driving_relation.empty()) continue;
          const Relation* rel = catalog_->Find(rule.driving_relation);
          if (rel != nullptr) hint += rel->size();
        }
        if (hint > 0) replicas[r]->ReserveHint(hint / n_ + 1);
      }
    }

    // Sink thunks take the WorkerContext through the {fn, ctx} pair — ctx
    // lives on this frame for the whole SCC run, and carries the exec
    // pointer for the backpressure path. Plain function pointers, not
    // std::function: the send path is per-block and the self-loop path is
    // per-tuple, and both thunks are registered deepcheck hot roots (the
    // analyzer verifies them from their own entry, since it cannot see
    // through the pointer).
    ctx.distributor = std::make_unique<Distributor>(
        &scc_, n_, wid,
        Distributor::BlockSink{&SccExecutor::DistSinkThunk, &ctx},
        Distributor::SelfLoopSink{&SccExecutor::DistSelfSinkThunk, &ctx});

    // Phase 0: base rules (or, in update mode, the update rules over rows
    // past the relation watermarks). Results flow through Distribute/Gather
    // exactly like recursive derivations.
    if (hooks_ != nullptr && hooks_->update_mode) {
      RunUpdateRules(&ctx);
    } else {
      RunBaseRules(&ctx);
    }
    ctx.distributor->Flush();

    // Phase 1: fixpoint loop under the coordination strategy. A
    // non-recursive SCC has no delta rules; the same loops then simply
    // drain the buffers and detect termination.
    switch (options_.coordination) {
      case CoordinationMode::kGlobal:
        GlobalLoop(&ctx);
        break;
      case CoordinationMode::kSsp:
        SspLoop(&ctx);
        break;
      case CoordinationMode::kDws:
        DwsLoop(&ctx);
        break;
    }

    ctx.Instant(TraceEventKind::kSccEnd, 0, scc_ordinal_);

    // Collect per-worker statistics. The ring snapshot happens here, on the
    // worker's own thread, so the single-writer invariant holds trivially.
    WorkerStats& ws = worker_stats_[wid];
    ws.local_iterations = ctx.local_iter;
    ws.idle_ns = ctx.idle_ns;
    ws.clock = ctx.clock;
    ctx.ring.Snapshot(&ws.trace);
    ws.trace_dropped = ctx.ring.dropped();
    ws.metrics = ctx.metrics;
    ws.tuples_routed = ctx.distributor->tuples_routed();
    ws.tuples_folded = ctx.distributor->tuples_folded();
    ws.tuples_emitted = ctx.distributor->tuples_emitted();
    ws.blocks_sent = ctx.distributor->blocks_sent();
    ws.self_loop_tuples = ctx.distributor->self_loop_tuples();
    for (const auto& table : replicas) {
      ws.merges += table->merges();
      ws.accepts += table->accepts();
      ws.merge_probe_cmps += table->merge_probe_cmps();
    }
    ws.pipeline_batches = ctx.batch_runner.batches();
    ws.pipeline_rows_selected = ctx.batch_runner.rows_selected();
  }

  /// Non-allocating emit thunk (BatchEmitSink): a plain function pointer
  /// plus the worker's context, not a capturing std::function.
  DCD_HOT_ROOT static void EmitBatchThunk(void* c, const HeadSpec& head,
                                          const uint64_t* wires,
                                          uint32_t count,
                                          uint32_t wire_arity) {
    auto* ctx = static_cast<WorkerContext*>(c);
    ctx->distributor->EmitBatch(head, wires, count, wire_arity);
  }

  /// Distributor sink thunks (BlockSink / SelfLoopSink): ctx is the
  /// emitting worker's WorkerContext.
  DCD_HOT_ROOT static void DistSinkThunk(void* c, uint32_t dest,
                                         const MsgBlock& block) {
    auto* ctx = static_cast<WorkerContext*>(c);
    ctx->exec->PushWithBackpressure(ctx, dest, block);
  }

  /// Self-loop bypass: the tuple's partition is the emitting worker, so it
  /// goes straight into the local gather scratch — the next GatherAll
  /// merges it with zero ring traffic and zero detector accounting.
  DCD_HOT_ROOT static void DistSelfSinkThunk(void* c, uint32_t replica,
                                             const uint64_t* wire,
                                             uint32_t arity) {
    auto* ctx = static_cast<WorkerContext*>(c);
    std::vector<uint64_t>& batch = ctx->gather_scratch[replica];
    batch.insert(batch.end(), wire, wire + arity);
  }

  void RunBaseRules(WorkerContext* ctx) {
    PipelineContext pctx;
    pctx.catalog = catalog_;
    pctx.base_indexes = base_indexes_;
    pctx.replicas = ctx->replicas;

    const BatchEmitSink emit{&EmitBatchThunk, ctx};
    for (const PhysicalRule& rule : scc_.base_rules) {
      PreparePipeline(rule, &pctx);
      if (rule.driving_is_unit) {
        if (ctx->wid == 0) ctx->batch_runner.RunUnit(rule, &pctx, emit);
        continue;
      }
      const Relation* rel = catalog_->Find(rule.driving_relation);
      DCD_CHECK(rel != nullptr);
      const uint64_t size = rel->size();
      const uint64_t begin = size * ctx->wid / n_;
      const uint64_t end = size * (ctx->wid + 1) / n_;
      ctx->batch_runner.Begin(rule, &pctx, emit);
      for (uint64_t r = begin; r < end; ++r) {
        ctx->batch_runner.Push(rel->Row(r));
      }
      ctx->batch_runner.Finish();
    }
  }

  /// Update-mode phase 0: drive each update rule over its relation's rows
  /// past the batch watermark. Rules whose probes touch recursive replicas
  /// carry update_partition_col — the driving row must be processed by the
  /// worker owning the probe key's partition (the replicas are
  /// hash-partitioned, a worker only holds its own slice). Rules with no
  /// recursive probes split the new rows by range instead.
  DCD_HOT_ROOT void RunUpdateRules(WorkerContext* ctx) {
    PipelineContext pctx;
    pctx.catalog = catalog_;
    pctx.base_indexes = base_indexes_;
    pctx.replicas = ctx->replicas;

    const BatchEmitSink emit{&EmitBatchThunk, ctx};
    for (const PhysicalRule& rule : scc_.update_rules) {
      DCD_COLD_CALL("catalog lookup once per update rule per batch, never per driven row");
      const Relation* rel = catalog_->Find(rule.driving_relation);
      if (rel == nullptr) continue;
      const uint64_t size = rel->size();
      uint64_t wm = size;
      if (hooks_->watermarks != nullptr) {
        auto it = hooks_->watermarks->find(rule.driving_relation);
        if (it != hooks_->watermarks->end()) wm = it->second;
      }
      if (wm >= size) continue;
      PreparePipeline(rule, &pctx);
      ctx->batch_runner.Begin(rule, &pctx, emit);
      if (rule.update_partition_col >= 0) {
        const uint32_t col = static_cast<uint32_t>(rule.update_partition_col);
        for (uint64_t r = wm; r < size; ++r) {
          TupleRef row = rel->Row(r);
          if (PartitionOf(row.data[col], n_) != ctx->wid) continue;
          ctx->batch_runner.Push(row);
        }
      } else {
        const uint64_t fresh = size - wm;
        const uint64_t begin = wm + fresh * ctx->wid / n_;
        const uint64_t end = wm + fresh * (ctx->wid + 1) / n_;
        for (uint64_t r = begin; r < end; ++r) {
          ctx->batch_runner.Push(rel->Row(r));
        }
      }
      ctx->batch_runner.Finish();
    }
  }

  /// Drains every incoming buffer once, appends the blocks' packed
  /// payloads to the gather scratch, and merges the scratch into the
  /// replicas (together with any tuples the self-loop bypass already parked
  /// there). Returns the number of ring tuples consumed — the quantity
  /// charged to the termination detector.
  ///
  /// The merge stamps its rows one past this worker's clock and
  /// the clock each sender drained from published before pushing: every
  /// row an instance read was stamped at most at its reader's clock, so a
  /// row's stamp exceeds those of the same-SCC rows its instance read.
  DCD_HOT_ROOT uint64_t GatherAll(WorkerContext* ctx) {
    DCD_CHAOS_POINT(kGather);
    uint64_t total = 0;
    uint32_t stamp = ctx->clock;
    const int64_t now = MonotonicNanos();
    for (uint32_t j = 0; j < n_; ++j) {
      ctx->block_scratch.clear();
      BlockQueue& q = Queue(j, ctx->wid);
      q.ring.PopBatch(&ctx->block_scratch);
      uint64_t drained = 0;
      for (const MsgBlock& block : ctx->block_scratch) {
        // The block payload is already dense at the wire arity: one range
        // append, no per-tuple unpacking.
        std::vector<uint64_t>& batch = ctx->gather_scratch[block.tag];
        batch.insert(batch.end(), block.w,
                     block.w + static_cast<size_t>(block.count) * block.arity);
        drained += block.count;
      }
      if (drained > 0) {
        q.tuples.fetch_sub(drained, std::memory_order_relaxed);
        // The ring's acquiring pop orders this read after the sender's
        // publication.
        const uint64_t sender =
            published_clocks_[j].v.load(std::memory_order_relaxed);
        stamp = std::max(stamp, static_cast<uint32_t>(sender));
      }
      ctx->dws.OnDrain(j, drained, now);
      total += drained;
    }
    ++stamp;
    for (size_t r = 0; r < ctx->gather_scratch.size(); ++r) {
      std::vector<uint64_t>& batch = ctx->gather_scratch[r];
      if (batch.empty()) continue;
      RecursiveTable& table = *(*ctx->replicas)[r];
      const uint32_t arity = table.wire_arity();
      ctx->clock = stamp;
      table.SetMergeStamp(stamp);
      table.MergeBatch(batch.data(), batch.size() / arity, arity);
      batch.clear();
    }
    if (total > 0) {
      // Flag before count (TerminationDetector's consumer rule):
      // InactiveWait's Deactivate may have cleared the producer's
      // Activate for a block drained here, whose tuples now sit
      // unprocessed in our delta.
      detector_.Activate(ctx->wid);
      detector_.AddConsumed(ctx->wid, total);
      ctx->metrics.drain_batch.Add(total);
      ctx->Instant(TraceEventKind::kDrain, total, scc_ordinal_);
    }
    return total;
  }

  DCD_HOT_ROOT void PushWithBackpressure(WorkerContext* ctx, uint32_t dest,
                                         const MsgBlock& block) {
    BlockQueue& q = Queue(ctx->wid, dest);
    // Publish the clock before the push: the consumer stamps past it.
    published_clocks_[ctx->wid].v.store(ctx->clock, std::memory_order_relaxed);
    // Raise the occupancy mirror before the push: the consumer subtracts
    // only blocks it popped, so add-then-push can transiently overstate but
    // never underflow the unsigned counter (pop-then-subtract could).
    q.tuples.fetch_add(block.count, std::memory_order_relaxed);
    while (!q.ring.TryPush(block)) {
      // Full ring: drain our own inputs (making space for workers that are
      // blocked pushing to us) and retry. This cannot livelock — every
      // worker's drain frees someone else's producer.
      if (GatherAll(ctx) == 0) std::this_thread::yield();
      if (aborted_.load(std::memory_order_relaxed)) {
        q.tuples.fetch_sub(block.count, std::memory_order_relaxed);
        return;
      }
    }
    // One batched detector update per block, not per tuple.
    detector_.OnBlockPushed(dest, block.count);
    ctx->Instant(TraceEventKind::kBlockPush, block.count, scc_ordinal_);
  }

  uint64_t DeltaTotal(const WorkerContext& ctx) const {
    uint64_t total = 0;
    for (const auto& table : *ctx.replicas) total += table->delta_size();
    return total;
  }

  /// One local semi-naive iteration: snapshot the deltas, run every delta
  /// rule against its driving snapshot, flush the distributor.
  DCD_HOT_ROOT void LocalIteration(WorkerContext* ctx) {
    const int64_t start = MonotonicNanos();
    std::vector<std::vector<TupleBuf>> snapshots(ctx->replicas->size());
    uint64_t processed = 0;
    for (size_t r = 0; r < ctx->replicas->size(); ++r) {
      snapshots[r] = (*ctx->replicas)[r]->TakeDelta();
      processed += snapshots[r].size();
    }

    PipelineContext pctx;
    pctx.catalog = catalog_;
    pctx.base_indexes = base_indexes_;
    pctx.replicas = ctx->replicas;

    const BatchEmitSink emit{&EmitBatchThunk, ctx};
    for (const PhysicalRule& rule : scc_.delta_rules) {
      const size_t dr = rule.driving_replica;
      const auto& snapshot = snapshots[dr];
      if (snapshot.empty()) continue;
      PreparePipeline(rule, &pctx);
      const uint32_t arity = (*ctx->replicas)[dr]->stored_arity();
      ctx->batch_runner.Begin(rule, &pctx, emit);
      for (const TupleBuf& t : snapshot) {
        ctx->batch_runner.Push(t.Ref(arity));
      }
      ctx->batch_runner.Finish();
    }
    ctx->distributor->Flush();
    const int64_t end = MonotonicNanos();
    ctx->dws.OnIteration(end - start, processed);
    ctx->metrics.iteration_ns.Add(static_cast<uint64_t>(end - start));
    ctx->Span(TraceEventKind::kIteration, start, end, processed,
              scc_ordinal_);
    ++ctx->local_iter;
    if (options_.max_global_iterations != 0 &&
        ctx->local_iter > options_.max_global_iterations) {
      aborted_.store(true, std::memory_order_release);
    }
  }

  bool Aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Parks the worker at its local fixpoint until new input arrives or the
  /// global fixpoint is detected. Returns false when evaluation is over.
  DCD_HOT_ROOT bool InactiveWait(WorkerContext* ctx) {
    IdleScope idle(this, ctx, TraceEventKind::kPark);
    while (true) {
      if (Aborted()) return false;
      GatherAll(ctx);
      if (DeltaTotal(*ctx) > 0) {
        detector_.Activate(ctx->wid);
        return true;
      }
      // Producers re-activate us on every push (Algorithm 2 line 15), and
      // the pushed tuples may all be duplicates — so the flag must be
      // cleared again after every drain that leaves the delta empty, or
      // the global-fixpoint check could never pass.
      detector_.Deactivate(ctx->wid);
      if (detector_.CheckTermination()) return false;
      std::this_thread::yield();
    }
  }

  // --- Strategy loops -----------------------------------------------------

  /// Algorithm 1: a barrier after every global iteration. Fast workers idle
  /// until the slowest arrives — the overhead DWS exists to remove.
  DCD_HOT_ROOT void GlobalLoop(WorkerContext* ctx) {
    // A waiter at either barrier keeps draining its inbound buffers so
    // producers blocked on a full ring always make progress.
    const auto drain_idle = [this, ctx] { GatherAll(ctx); };
    // Everyone finishes the base phase before round 1.
    {
      IdleScope idle(this, ctx, TraceEventKind::kBarrierWait);
      barrier_.Wait([] {}, drain_idle);
    }
    while (true) {
      DCD_CHAOS_POINT(kStrategyLoop);
      GatherAll(ctx);
      const uint64_t delta = DeltaTotal(*ctx);
      round_delta_.fetch_add(delta, std::memory_order_acq_rel);
      {
        IdleScope idle(this, ctx, TraceEventKind::kBarrierWait);
        barrier_.Wait(
            [this] {
              // The abort check lives in the serial section so every worker
              // leaves the barrier protocol in the same round.
              global_done_.store(
                  round_delta_.load(std::memory_order_acquire) == 0 ||
                      Aborted(),
                  std::memory_order_release);
              round_delta_.store(0, std::memory_order_release);
            },
            drain_idle);
      }
      if (global_done_.load(std::memory_order_acquire)) return;
      if (delta > 0) LocalIteration(ctx);
      {
        IdleScope idle(this, ctx, TraceEventKind::kBarrierWait);
        barrier_.Wait([] {}, drain_idle);
      }
    }
  }

  /// Stale-synchronous parallel: a worker may run at most `ssp_slack` local
  /// iterations ahead of the slowest active worker (paper §4.1 / [14]).
  DCD_HOT_ROOT void SspLoop(WorkerContext* ctx) {
    while (!Aborted()) {
      DCD_CHAOS_POINT(kStrategyLoop);
      GatherAll(ctx);
      if (DeltaTotal(*ctx) == 0) {
        ssp_iters_[ctx->wid].v.store(UINT64_MAX, std::memory_order_release);
        if (!InactiveWait(ctx)) return;
        ssp_iters_[ctx->wid].v.store(ctx->local_iter,
                                     std::memory_order_release);
        continue;
      }
      // Slack check against the slowest active worker.
      {
        IdleScope idle(this, ctx, TraceEventKind::kSspWait);
        while (!Aborted()) {
          const uint64_t min_iter = MinActiveIteration();
          if (min_iter == UINT64_MAX ||
              ctx->local_iter <= min_iter + options_.ssp_slack) {
            break;
          }
          GatherAll(ctx);  // Keep collecting while blocked.
          if (detector_.Done()) return;
          std::this_thread::yield();
        }
      }
      LocalIteration(ctx);
      ssp_iters_[ctx->wid].v.store(ctx->local_iter,
                                   std::memory_order_release);
    }
  }

  uint64_t MinActiveIteration() const {
    uint64_t min_iter = UINT64_MAX;
    for (uint32_t j = 0; j < n_; ++j) {
      const uint64_t it = ssp_iters_[j].v.load(std::memory_order_acquire);
      min_iter = std::min(min_iter, it);
    }
    return min_iter;
  }

  /// Algorithm 2: the Dynamic Weight-based Strategy. After gathering, a
  /// worker with a small delta (0 < |δ| < ω) waits up to τ for more tuples
  /// before iterating; ω and τ come from the queueing model.
  DCD_HOT_ROOT void DwsLoop(WorkerContext* ctx) {
    while (!Aborted()) {
      DCD_CHAOS_POINT(kStrategyLoop);
      GatherAll(ctx);
      uint64_t delta = DeltaTotal(*ctx);
      if (delta == 0) {
        if (!InactiveWait(ctx)) return;
        delta = DeltaTotal(*ctx);
      }
      // Lines 5–8: bounded wait while the delta is small. The enclosing
      // `if` keeps rounds that sail straight through (|δ| ≥ ω) from
      // emitting zero-length kDwsWait spans.
      bool waited = false;
      if (delta > 0 && delta < static_cast<uint64_t>(ctx->dws.omega())) {
        const int64_t budget_ns =
            static_cast<int64_t>(options_.dws_timeout_us) * 1000;
        const int64_t wait_start = MonotonicNanos();
        IdleScope idle(this, ctx, TraceEventKind::kDwsWait);
        waited = true;
        while (delta > 0 &&
               delta < static_cast<uint64_t>(ctx->dws.omega()) &&
               !Aborted()) {
          const int64_t elapsed = MonotonicNanos() - wait_start;
          if (elapsed >= std::min(ctx->dws.tau_ns(), budget_ns)) break;
          // The τ-capped sleep IS DWS's coordination mechanism, not
          // incidental blocking — the strategy trades a bounded wait for a
          // bigger batch.
          DCD_COLD_CALL("DWS τ-capped wait slice is the strategy itself, Algorithm 2 line 7");
          // dcd-lint: allow(hot-path-mutex): DWS bounded wait, Algorithm 2 line 7
          std::this_thread::sleep_for(std::chrono::microseconds(
              options_.dws_max_wait_slice_us));
          GatherAll(ctx);
          delta = DeltaTotal(*ctx);
        }
      }
      if (delta == 0) continue;
      // Line 12: refresh ω and τ from current statistics, then iterate.
      UpdateDws(ctx, waited);
      LocalIteration(ctx);
    }
  }

  void UpdateDws(WorkerContext* ctx, bool waited) {
    std::vector<uint64_t> sizes(n_);
    for (uint32_t j = 0; j < n_; ++j) {
      // The tuple-granular occupancy mirror, NOT ring.SizeApprox(): the
      // queueing model's ω/τ are calibrated in tuples, and a block-count
      // reading would understate pending work by the packing factor.
      sizes[j] = Queue(j, ctx->wid).tuples.load(std::memory_order_relaxed);
    }
    ctx->dws.Update(sizes);
    if (!ctx->ring.enabled()) return;
    // Decision telemetry: the freshly recomputed model state, plus whether
    // this round's wait gate actually held the worker back (proceed=false)
    // or let it sail straight into the iteration (proceed=true).
    const int64_t now = MonotonicNanos();
    TraceEvent ev;
    ev.kind = TraceEventKind::kDwsDecision;
    ev.proceed = !waited;
    ev.worker = ctx->wid;
    ev.scc = scc_ordinal_;
    ev.start_ns = now;
    ev.end_ns = now;
    ev.tuples = 0;
    ev.omega = ctx->dws.omega();
    ev.rho = ctx->dws.rho();
    ev.lambda = ctx->dws.lambda();
    ev.mu = ctx->dws.mu();
    ev.tau_ns = ctx->dws.tau_ns();
    ctx->ring.Append(ev);
  }

  // --- Finalization -------------------------------------------------------

  void MaterializeResults() {
    for (const std::string& pred : scc_.derived_preds) {
      const std::vector<int> replica_ids = scc_.ReplicasOf(pred);
      DCD_CHECK(!replica_ids.empty());
      const int canonical = replica_ids.front();
      Relation merged(pred, plan_.schemas.at(pred));
      for (uint32_t w = 0; w < n_; ++w) {
        merged.AppendAll(worker_replicas_[w][canonical]->rows());
      }
      catalog_->Put(std::move(merged));
    }
  }

  void CollectStats(EvalStats* stats) {
    // Called once per SCC; histograms merge across SCCs into the same
    // per-worker slot.
    if (stats->worker_metrics.size() < worker_stats_.size()) {
      stats->worker_metrics.resize(worker_stats_.size());
    }
    for (size_t w = 0; w < worker_stats_.size(); ++w) {
      const WorkerStats& ws = worker_stats_[w];
      stats->total_local_iterations += ws.local_iterations;
      stats->max_local_iterations =
          std::max(stats->max_local_iterations, ws.local_iterations);
      stats->tuples_routed += ws.tuples_routed;
      stats->tuples_folded += ws.tuples_folded;
      stats->tuples_emitted += ws.tuples_emitted;
      stats->blocks_sent += ws.blocks_sent;
      stats->self_loop_tuples += ws.self_loop_tuples;
      stats->merges += ws.merges;
      stats->accepts += ws.accepts;
      stats->merge_probe_cmps += ws.merge_probe_cmps;
      stats->pipeline_batches += ws.pipeline_batches;
      stats->pipeline_rows_selected += ws.pipeline_rows_selected;
      stats->idle_wait_seconds += static_cast<double>(ws.idle_ns) * 1e-9;
      stats->trace_dropped += ws.trace_dropped;
      stats->trace.insert(stats->trace.end(), ws.trace.begin(),
                          ws.trace.end());
      stats->worker_metrics[w].iteration_ns.Merge(ws.metrics.iteration_ns);
      stats->worker_metrics[w].drain_batch.Merge(ws.metrics.drain_batch);
    }
  }

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
  SpinBarrier barrier_;
  std::atomic<uint64_t> round_delta_{0};
  std::atomic<bool> global_done_{false};
  std::vector<PaddedU64> ssp_iters_;
  /// Per worker, single writer: its clock as of its last block push.
  std::vector<PaddedU64> published_clocks_;
  uint32_t start_clock_ = 0;
  std::atomic<bool> aborted_{false};

  std::vector<std::vector<std::unique_ptr<RecursiveTable>>> worker_replicas_;
  std::vector<WorkerStats> worker_stats_;
};

}  // namespace

std::vector<std::pair<const char*, double>> EvalStats::Counters() const {
  return {
      {"seconds", seconds},
      {"num_sccs", static_cast<double>(num_sccs)},
      {"total_local_iterations", static_cast<double>(total_local_iterations)},
      {"max_local_iterations", static_cast<double>(max_local_iterations)},
      {"tuples_routed", static_cast<double>(tuples_routed)},
      {"tuples_folded", static_cast<double>(tuples_folded)},
      {"tuples_emitted", static_cast<double>(tuples_emitted)},
      {"blocks_sent", static_cast<double>(blocks_sent)},
      {"self_loop_tuples", static_cast<double>(self_loop_tuples)},
      {"merges", static_cast<double>(merges)},
      {"accepts", static_cast<double>(accepts)},
      {"cache_hits", static_cast<double>(cache_hits)},
      {"merge_probe_cmps", static_cast<double>(merge_probe_cmps)},
      {"pipeline_batches", static_cast<double>(pipeline_batches)},
      {"pipeline_rows_selected", static_cast<double>(pipeline_rows_selected)},
      {"idle_wait_seconds", idle_wait_seconds},
      {"trace_dropped", static_cast<double>(trace_dropped)},
      {"update_batches", static_cast<double>(update_batches)},
      {"update_recomputes", static_cast<double>(update_recomputes)},
      {"delta_tuples_in", static_cast<double>(delta_tuples_in)},
      {"rederived_tuples", static_cast<double>(rederived_tuples)},
      {"update_rows_scanned", static_cast<double>(update_rows_scanned)},
      {"morsels_published", static_cast<double>(morsels_published)},
      {"morsels_stolen", static_cast<double>(morsels_stolen)},
      {"tuples_stolen", static_cast<double>(tuples_stolen)},
      {"pool_fallback_gangs", static_cast<double>(pool_fallback_gangs)},
  };
}

std::string EvalStats::ToString() const {
  std::ostringstream os;
  os << "EvalStats{";
  bool first = true;
  for (const auto& [name, value] : Counters()) {
    if (!first) os << ", ";
    first = false;
    os << name << "=";
    // Integral counters print exactly; default stream precision would
    // render large counts in lossy scientific notation (7.38615e+06).
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      os << static_cast<int64_t>(value);
    } else {
      os << value;
    }
  }
  os << "}";
  return os.str();
}

Result<EvalStats> Engine::Run(const Program& program) {
  // A from-scratch run makes any retained incremental state (replicas,
  // base indexes, watermarks) stale: the run replaces catalog relations the
  // watermarks and indexes describe. Tear the session down deterministically
  // up front — the alternative is stale-but-reachable state that a later
  // ApplyUpdates would happily read.
  inc_.reset();
  DCD_ASSIGN_OR_RETURN(ProgramAnalysis analysis,
                       ProgramAnalysis::Analyze(program, *catalog_));
  DCD_ASSIGN_OR_RETURN(std::vector<LogicalRulePlan> logical,
                       BuildLogicalPlans(program, analysis));
  DCD_ASSIGN_OR_RETURN(PhysicalPlan plan,
                       BuildPhysicalPlan(program, analysis, logical));
  return RunPlan(plan);
}

Result<EvalStats> Engine::RunPlan(const PhysicalPlan& plan) {
  inc_.reset();  // Same invalidation contract as Run().
  WallTimer timer;
  EvalStats stats;
  BaseIndexSet base_indexes(plan.base_indexes);

  for (const SccPlan& scc : plan.sccs) {
    // Build indexes this SCC probes; inputs from earlier SCCs are
    // materialized by now.
    for (const PhysicalRule& rule : scc.base_rules) {
      for (const Step& step : rule.steps) {
        if (step.base_index_id >= 0) {
          DCD_RETURN_IF_ERROR(
              base_indexes.EnsureBuilt(step.base_index_id, *catalog_));
        }
      }
    }
    for (const PhysicalRule& rule : scc.delta_rules) {
      for (const Step& step : rule.steps) {
        if (step.base_index_id >= 0) {
          DCD_RETURN_IF_ERROR(
              base_indexes.EnsureBuilt(step.base_index_id, *catalog_));
        }
      }
    }

    SccExecutor executor(plan, scc, catalog_, &base_indexes, options_,
                         static_cast<uint32_t>(stats.num_sccs));
    DCD_RETURN_IF_ERROR(executor.Run(&stats));
    ++stats.num_sccs;
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

// ---------------------------------------------------------------------------
// Incremental evaluation over streaming EDB updates
// ---------------------------------------------------------------------------

namespace {

/// Visits every base-index id referenced by any of the SCC's compiled rules
/// (base, delta, and update versions).
template <typename Fn>
void ForEachSccIndexId(const SccPlan& scc, Fn&& fn) {
  const auto scan = [&fn](const std::vector<PhysicalRule>& rules) {
    for (const PhysicalRule& rule : rules) {
      for (const Step& step : rule.steps) {
        if (step.base_index_id >= 0) fn(step.base_index_id);
      }
    }
  };
  scan(scc.base_rules);
  scan(scc.delta_rules);
  scan(scc.update_rules);
}

}  // namespace

/// Everything an incremental session retains between ApplyUpdates batches:
/// the augmented plan, the per-worker merge structures at the current
/// fixpoint, the base indexes, and the row-count watermarks separating
/// "already processed" from "newly arrived" rows.
struct Engine::IncrementalState {
  Program program;
  ProgramAnalysis analysis;
  PhysicalPlan plan;
  /// False when the update-version augmentation failed outright; every
  /// batch then takes the full-recompute fallback.
  bool have_update_rules = false;

  std::unique_ptr<BaseIndexSet> base_indexes;
  /// Retained merge structures, [scc][worker][replica]. Moved into the
  /// SccExecutor's workers for each batch and back out afterwards.
  std::vector<std::vector<std::vector<std::unique_ptr<RecursiveTable>>>>
      replicas;
  /// rows() size of each retained table at the last sync, same shape —
  /// rows past the watermark are the batch's new derivations, appended to
  /// the catalog relation during materialization.
  std::vector<std::vector<std::vector<uint64_t>>> replica_watermarks;
  /// Relation name → row count at the last sync.
  std::map<std::string, uint64_t> rel_watermarks;
  /// Base-index ids by backing relation, for Finder().
  std::map<std::string, std::vector<int>> indexes_by_rel;
  /// Relations some update version reads in a scan or probe step (not as
  /// its driving relation): a delete keeps their pre-batch contents.
  std::set<std::string> update_read_rels;

  /// Where each retained row of an aggregate predicate sits in its
  /// catalog relation: [worker][row id] → catalog row, and back. Built on
  /// the predicate's first incremental sync after a full run, when the
  /// catalog holds the canonical replica's partitions back to back; every
  /// full run drops them.
  struct CatalogLayout {
    std::vector<std::vector<uint64_t>> pos;
    std::vector<std::pair<uint32_t, uint64_t>> owner;
  };
  std::map<std::string, CatalogLayout> layouts;

  /// The stamp clock of the retained rows: the highest stamp any
  /// of them carries. A full run restarts it from 0.
  uint32_t clock = 0;

  // Eligibility metadata, read off the program text once.
  std::set<std::string> negated_rels;  // Appears under negation.
  std::map<std::string, std::set<std::string>> consumers;  // Body → heads.

  /// Closes `affected` over body→head consumption edges: anything derived
  /// (directly or transitively) from an affected relation is affected.
  void PropagateAffected(std::set<std::string>* affected) const {
    std::vector<std::string> frontier(affected->begin(), affected->end());
    while (!frontier.empty()) {
      const std::string p = std::move(frontier.back());
      frontier.pop_back();
      auto it = consumers.find(p);
      if (it == consumers.end()) continue;
      for (const std::string& head : it->second) {
        if (affected->insert(head).second) frontier.push_back(head);
      }
    }
  }

  /// Builds / catches up every base index the SCC's rules probe.
  Status SyncSccIndexes(const SccPlan& scc, const Catalog& catalog) {
    Status status = Status::OK();
    ForEachSccIndexId(scc, [&](int id) {
      if (!status.ok()) return;
      status = base_indexes->SyncAppended(id, catalog);
    });
    return status;
  }

  /// Finds catalog rows through the base indexes built over them, and
  /// keeps those indexes in step as rows leave.
  RowFinder Finder() {
    RowFinder finder;
    finder.find = [this](const std::string& name, const Relation& relation,
                         TupleRef row, std::vector<uint64_t>* ids) {
      auto it = indexes_by_rel.find(name);
      if (it == indexes_by_rel.end()) return false;
      for (int id : it->second) {
        if (base_indexes->FindEqualRows(id, relation, row, ids)) return true;
      }
      return false;
    };
    finder.will_remove = [this](const Relation& relation,
                                const std::vector<uint64_t>& ids) {
      base_indexes->RemoveRows(relation, ids);
    };
    return finder;
  }

  /// Copies relation `name` into `old_copies` before the batch removes rows
  /// from it, when an update version reads it: the pre-batch state the
  /// delete's forward drive needs. Nothing else reads the copy.
  void KeepOldCopy(const std::string& name, const Relation& rel,
                   std::map<std::string, Relation>* old_copies,
                   EvalStats* stats) const {
    if (update_read_rels.count(name) == 0 || old_copies->count(name) > 0) {
      return;
    }
    old_copies->emplace(name, rel);
    stats->update_rows_scanned += rel.size();
  }

  /// Applies removal deltas to the catalog through the session's indexes,
  /// which follow the removed rows in place.
  Status RemoveFromCatalog(const std::vector<RelationDelta>& removals,
                           Catalog* catalog, EvalStats* stats) {
    RowFinder finder = Finder();
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(removals, catalog, &finder));
    stats->update_rows_scanned += finder.rows_scanned;
    return Status::OK();
  }

  /// Records each retained table's row count and restarts the change log
  /// of its aggregate tables: the next batch's new rows lie past the
  /// watermark, its changed groups in the log.
  void RecordSccWatermarks(size_t s) {
    auto& per_worker = replica_watermarks[s];
    per_worker.resize(replicas[s].size());
    for (size_t w = 0; w < replicas[s].size(); ++w) {
      per_worker[w].resize(replicas[s][w].size());
      for (size_t r = 0; r < replicas[s][w].size(); ++r) {
        RecursiveTable& table = *replicas[s][w][r];
        per_worker[w][r] = table.rows().size();
        if (table.agg_spec().func != AggFunc::kNone) table.StartChangeLog();
      }
    }
  }

  /// True when some update rule of the SCC has rows past its driving
  /// relation's watermark, i.e. the batch gave this SCC work.
  bool SccHasNewInput(const SccPlan& scc, const Catalog& catalog) const {
    for (const PhysicalRule& rule : scc.update_rules) {
      const Relation* rel = catalog.Find(rule.driving_relation);
      auto wm = rel_watermarks.find(rule.driving_relation);
      if (rel != nullptr && wm != rel_watermarks.end() &&
          rel->size() > wm->second) {
        return true;
      }
    }
    return false;
  }

  /// Brings aggregate predicate `pred`'s catalog relation up to SCC `s`'s
  /// retained tables after an insert batch. Groups whose value changed move
  /// to the tail with their new value, new groups are appended after them,
  /// and the relation watermark is left in front of both, so a downstream
  /// update rule drives exactly those rows. Costs O(changed + new) once the
  /// layout exists; the base indexes over `pred` follow each rewritten row.
  Status SyncAggregate(const SccPlan& scc, size_t s, const std::string& pred,
                       Relation* rel) {
    const int canonical = scc.ReplicasOf(pred).front();
    auto& tables = replicas[s];
    const uint32_t n = static_cast<uint32_t>(tables.size());
    std::vector<std::vector<uint64_t>> changed(n);
    uint64_t moved = 0;
    uint64_t fresh = 0;
    for (uint32_t w = 0; w < n; ++w) {
      RecursiveTable& table = *tables[w][canonical];
      changed[w] = table.TakeChangedRows();
      moved += changed[w].size();
      fresh += table.rows().size() - replica_watermarks[s][w][canonical];
    }
    if (moved == 0 && fresh == 0) return Status::OK();
    DCD_ASSIGN_OR_RETURN(CatalogLayout * layout_ptr,
                         Layout(scc, s, pred, *rel));
    CatalogLayout& layout = *layout_ptr;

    // Partition: every changed row ends up in [tail, size). One already
    // there stays; one in front swaps places with an unchanged tail row.
    const auto rewrite = [&](uint64_t p, TupleRef row) {
      base_indexes->RewriteRow(*rel, p, row);
      rel->SetRow(p, row);
    };
    const uint64_t size = rel->size();
    const uint64_t tail = size - moved;
    std::vector<uint64_t> at;
    at.reserve(moved);
    for (uint32_t w = 0; w < n; ++w) {
      for (uint64_t r : changed[w]) at.push_back(layout.pos[w][r]);
    }
    std::sort(at.begin(), at.end());
    const size_t in_front =
        std::lower_bound(at.begin(), at.end(), tail) - at.begin();
    size_t next_in_tail = in_front;
    uint64_t t = tail;
    for (size_t i = 0; i < in_front; ++i) {
      while (next_in_tail < at.size() && at[next_in_tail] == t) {
        ++next_in_tail;
        ++t;
      }
      const auto front = layout.owner[at[i]];
      const auto back = layout.owner[t];
      rewrite(at[i], rel->Row(t));
      layout.owner[at[i]] = back;
      layout.pos[back.first][back.second] = at[i];
      layout.owner[t] = front;
      layout.pos[front.first][front.second] = t;
      ++t;
    }
    for (uint64_t p = tail; p < size; ++p) {
      const auto [w, r] = layout.owner[p];
      rewrite(p, tables[w][canonical]->rows().Row(r));
    }
    for (uint32_t w = 0; w < n; ++w) {
      const Relation& rows = tables[w][canonical]->rows();
      for (uint64_t r = replica_watermarks[s][w][canonical]; r < rows.size();
           ++r) {
        layout.pos[w].push_back(rel->Append(rows.Row(r)));
        layout.owner.emplace_back(w, r);
      }
    }
    rel_watermarks[pred] = tail;
    return Status::OK();
  }

  /// `pred`'s CatalogLayout, built on first use from the retained tables'
  /// watermarks: the catalog then holds the canonical replica's
  /// partitions back to back.
  Result<CatalogLayout*> Layout(const SccPlan& scc, size_t s,
                                const std::string& pred, const Relation& rel) {
    auto [it, built] = layouts.try_emplace(pred);
    CatalogLayout& layout = it->second;
    if (!built) return &layout;
    const int canonical = scc.ReplicasOf(pred).front();
    const uint32_t n = static_cast<uint32_t>(replicas[s].size());
    layout.pos.resize(n);
    for (uint32_t w = 0; w < n; ++w) {
      const uint64_t rows = replica_watermarks[s][w][canonical];
      layout.pos[w].resize(rows);
      for (uint64_t r = 0; r < rows; ++r) {
        layout.pos[w][r] = layout.owner.size();
        layout.owner.emplace_back(w, r);
      }
    }
    if (layout.owner.size() != rel.size()) {
      layouts.erase(it);
      return Status::Internal("catalog relation '" + pred +
                              "' does not match its retained tables");
    }
    return &layout;
  }

  /// Erases the rows `dead[w]` (ascending row ids of worker w's canonical
  /// partition) from `pred`'s catalog relation, and patches its layout and
  /// the base indexes over it, in O(|dead|): the catalog relation fills its
  /// holes from the tail, and so does each partition's
  /// RecursiveTable::RemoveRows, which the caller runs next.
  Status EraseFromCatalog(const SccPlan& scc, size_t s,
                          const std::string& pred,
                          const std::vector<std::vector<uint64_t>>& dead,
                          Relation* rel) {
    DCD_ASSIGN_OR_RETURN(CatalogLayout * layout, Layout(scc, s, pred, *rel));
    std::vector<uint64_t> dead_pos;
    for (size_t w = 0; w < dead.size(); ++w) {
      for (uint64_t r : dead[w]) dead_pos.push_back(layout->pos[w][r]);
    }
    std::sort(dead_pos.begin(), dead_pos.end());
    base_indexes->RemoveRows(*rel, dead_pos);
    rel->RemoveRows(dead_pos);
    // Highest position first, the catalog row moved into each hole takes
    // its owner along.
    for (size_t i = dead_pos.size(); i-- > 0;) {
      const uint64_t last = layout->owner.size() - 1;
      if (dead_pos[i] != last) {
        const auto moved = layout->owner[last];
        layout->owner[dead_pos[i]] = moved;
        layout->pos[moved.first][moved.second] = dead_pos[i];
      }
      layout->owner.pop_back();
    }
    // The same for each partition: its last row takes the hole's id.
    for (uint32_t w = 0; w < dead.size(); ++w) {
      std::vector<uint64_t>& pos = layout->pos[w];
      for (size_t i = dead[w].size(); i-- > 0;) {
        const uint64_t r = dead[w][i];
        if (r != pos.size() - 1) {
          pos[r] = pos.back();
          layout->owner[pos[r]] = {w, r};
        }
        pos.pop_back();
      }
    }
    DCD_DCHECK(layout->owner.size() == rel->size());
    return Status::OK();
  }

  /// True when SCC `s`'s retained tables hold rows awaiting a semi-naive
  /// step: a delete's reseeded facts.
  bool HasPendingDelta(size_t s) const {
    for (const auto& per_worker : replicas[s]) {
      for (const auto& table : per_worker) {
        if (table->delta_size() > 0) return true;
      }
    }
    return false;
  }

  /// Fills `in` for a delete through SCC `s`: catches up the `indexes`
  /// its delta and check versions probe (in the session's set, the
  /// check-only ones are built on the first delete) and builds
  /// `old_indexes` over the pre-batch copies its update versions read. The
  /// caller sets `in->run_gang`.
  Status PrepareDelete(size_t s, const Catalog& catalog,
                       const std::map<std::string, Relation>& old_copies,
                       const std::map<std::string, Relation>& removed_rows,
                       BaseIndexSet* indexes, BaseIndexSet* old_indexes,
                       DeleteInput* in) {
    const SccPlan& scc = plan.sccs[s];
    for (const auto* rules : {&scc.delta_rules, &scc.check_rules}) {
      for (const PhysicalRule& rule : *rules) {
        for (const Step& step : rule.steps) {
          if (step.base_index_id < 0) continue;
          DCD_RETURN_IF_ERROR(
              indexes->SyncAppended(step.base_index_id, catalog));
        }
      }
    }
    for (const PhysicalRule& rule : scc.update_rules) {
      if (removed_rows.count(rule.driving_relation) == 0) continue;
      for (const Step& step : rule.steps) {
        if (step.base_index_id < 0) continue;
        auto old = old_copies.find(step.relation);
        const Relation* rel = old != old_copies.end()
                                  ? &old->second
                                  : catalog.Find(step.relation);
        if (rel == nullptr) {
          return Status::Internal("relation '" + step.relation +
                                  "' missing on the delete path");
        }
        old_indexes->EnsureBuiltOver(step.base_index_id, *rel);
      }
    }
    in->scc = &scc;
    in->num_workers = static_cast<uint32_t>(replicas[s].size());
    in->tables = &replicas[s];
    in->removed = &removed_rows;
    in->catalog = &catalog;
    in->indexes = indexes;
    in->old_indexes = old_indexes;
    in->old_relations = &old_copies;
    return Status::OK();
  }

  /// True when some rule of the SCC consumes (positive body atom) one of
  /// `rels`.
  bool SccConsumesAny(const SccPlan& scc,
                      const std::set<std::string>& rels) const {
    const SccInfo& info = analysis.sccs()[scc.scc_id];
    for (int r : info.rule_indices) {
      for (const BodyLiteral& lit : program.rules[r].body) {
        if (lit.kind != BodyLiteral::Kind::kAtom || lit.negated) continue;
        if (rels.count(lit.atom.predicate) > 0) return true;
      }
    }
    return false;
  }
};

Engine::Engine(Catalog* catalog, EngineOptions options)
    : catalog_(catalog), options_(options.Resolved()) {}

Engine::~Engine() = default;

Result<EvalStats> Engine::BeginIncremental(const Program& program) {
  auto state = std::make_unique<IncrementalState>();
  state->program = program.Clone();
  DCD_ASSIGN_OR_RETURN(
      state->analysis, ProgramAnalysis::Analyze(state->program, *catalog_));
  DCD_ASSIGN_OR_RETURN(std::vector<LogicalRulePlan> logical,
                       BuildLogicalPlans(state->program, state->analysis));
  Result<PhysicalPlan> augmented =
      BuildPhysicalPlan(state->program, state->analysis, logical,
                        /*build_update_rules=*/true);
  if (augmented.ok()) {
    state->plan = std::move(augmented).value();
    state->have_update_rules = true;
  } else {
    DCD_ASSIGN_OR_RETURN(
        state->plan,
        BuildPhysicalPlan(state->program, state->analysis, logical));
  }

  for (const Rule& rule : state->program.rules) {
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kAtom) continue;
      if (lit.negated) {
        state->negated_rels.insert(lit.atom.predicate);
        continue;
      }
      state->consumers[lit.atom.predicate].insert(rule.head.predicate);
    }
  }
  for (size_t i = 0; i < state->plan.base_indexes.size(); ++i) {
    state->indexes_by_rel[state->plan.base_indexes[i].relation].push_back(
        static_cast<int>(i));
  }
  for (const SccPlan& scc : state->plan.sccs) {
    for (const PhysicalRule& rule : scc.update_rules) {
      for (const Step& step : rule.steps) {
        if (!step.relation.empty() && step.kind != StepKind::kProbeRecursive) {
          state->update_read_rels.insert(step.relation);
        }
      }
    }
  }

  inc_ = std::move(state);
  Result<EvalStats> run = RunRetaining();
  if (!run.ok()) inc_.reset();
  return run;
}

Result<EvalStats> Engine::RunRetaining() {
  IncrementalState* st = inc_.get();
  WallTimer timer;
  EvalStats stats;
  st->base_indexes = std::make_unique<BaseIndexSet>(st->plan.base_indexes);
  st->replicas.clear();
  st->replicas.resize(st->plan.sccs.size());
  st->replica_watermarks.assign(st->plan.sccs.size(), {});
  st->layouts.clear();
  st->clock = 0;
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    DCD_RETURN_IF_ERROR(st->SyncSccIndexes(scc, *catalog_));
    auto& retained = st->replicas[s];
    retained.clear();
    retained.resize(options_.num_workers);
    IncrementalHooks hooks;
    hooks.retained = &retained;
    hooks.clock = &st->clock;
    SccExecutor executor(st->plan, scc, catalog_, st->base_indexes.get(),
                         options_, static_cast<uint32_t>(s), &hooks);
    DCD_RETURN_IF_ERROR(executor.Run(&stats));
    ++stats.num_sccs;
    st->RecordSccWatermarks(s);
  }
  for (const std::string& name : catalog_->Names()) {
    st->rel_watermarks[name] = catalog_->Find(name)->size();
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<EvalStats> Engine::ApplyUpdates(const ResolvedUpdateBatch& batch) {
  if (inc_ == nullptr) {
    return Status::InvalidArgument(
        "ApplyUpdates requires an active incremental session "
        "(call BeginIncremental first)");
  }
  IncrementalState* st = inc_.get();
  WallTimer timer;
  EvalStats stats;
  stats.update_batches = 1;

  for (const ResolvedUpdateOp& op : batch.ops) {
    if (st->analysis.HasPredicate(op.relation) &&
        !st->analysis.predicate(op.relation).is_edb) {
      return Status::InvalidArgument(
          "streaming updates may only target EDB relations; '" +
          op.relation + "' is derived");
    }
  }

  // The session's built base indexes find the stored copies of the
  // touched tuples, instead of a scan of every touched relation.
  RowFinder finder = st->Finder();
  DCD_ASSIGN_OR_RETURN(std::vector<RelationDelta> deltas,
                       NetOutBatch(batch, *catalog_, &finder));
  stats.update_rows_scanned += finder.rows_scanned;
  for (const RelationDelta& d : deltas) {
    stats.delta_tuples_in += d.added.size() + d.removed.size();
  }
  if (deltas.empty()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }

  bool removals = false;
  std::set<std::string> affected;
  for (const RelationDelta& d : deltas) {
    affected.insert(d.relation);
    removals |= !d.removed.empty();
  }
  st->PropagateAffected(&affected);

  // Eligibility: batches whose effects the delta machinery cannot replay
  // exactly fall back to a transparent full recompute (which also resets
  // the retained state, so later batches may be incremental again).
  bool fallback = !st->have_update_rules;
  for (const std::string& p : affected) {
    if (fallback) break;
    // A change under negation is non-monotone on the positive side.
    if (st->negated_rels.count(p) > 0) fallback = true;
    // Inserts lower a min (raise a max) in place; the planner lists the
    // aggregates with a reader that is not monotone in that value, and the
    // sum predicates, whose merge replaces a contributor's value.
    if (std::find(st->plan.insert_recompute_preds.begin(),
                  st->plan.insert_recompute_preds.end(),
                  p) != st->plan.insert_recompute_preds.end()) {
      fallback = true;
    }
    if (std::find(st->plan.update_ineligible_rels.begin(),
                  st->plan.update_ineligible_rels.end(),
                  p) != st->plan.update_ineligible_rels.end()) {
      fallback = true;
    }
    // The delete needs a check version of every rule of the SCC: count,
    // sum and non-copy min/max SCCs have none.
    if (removals && std::find(st->plan.check_ineligible_preds.begin(),
                              st->plan.check_ineligible_preds.end(),
                              p) != st->plan.check_ineligible_preds.end()) {
      fallback = true;
    }
  }

  // Applies the `pending` deltas and recomputes while rebuilding the
  // retained state.
  const auto recompute =
      [&](const std::vector<RelationDelta>& pending) -> Result<EvalStats> {
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(pending, catalog_));
    Result<EvalStats> rerun = RunRetaining();
    if (!rerun.ok()) {
      inc_.reset();  // Retained state is torn; the session cannot continue.
      return rerun.status();
    }
    EvalStats out = std::move(rerun).value();
    out.update_recomputes = 1;
    out.update_batches = stats.update_batches;
    out.delta_tuples_in = stats.delta_tuples_in;
    out.rederived_tuples += stats.rederived_tuples;
    out.update_rows_scanned += stats.update_rows_scanned;
    out.seconds = timer.ElapsedSeconds();
    return out;
  };
  if (fallback) return recompute(deltas);

  // --- Delete phase: restore the fixpoint under the removals alone. ---
  if (removals) {
    std::map<std::string, Relation> old_copies;
    std::map<std::string, Relation> removed_rows;
    std::vector<RelationDelta> removal_deltas;
    for (const RelationDelta& d : deltas) {
      if (d.removed.empty()) continue;
      const Relation* rel = catalog_->Find(d.relation);
      st->KeepOldCopy(d.relation, *rel, &old_copies, &stats);
      Relation rm(d.relation, rel->schema());
      for (const auto& row : d.removed) {
        rm.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
      }
      removed_rows.emplace(d.relation, std::move(rm));
      RelationDelta rd;
      rd.relation = d.relation;
      rd.removed = d.removed;
      removal_deltas.push_back(std::move(rd));
    }
    DCD_RETURN_IF_ERROR(
        st->RemoveFromCatalog(removal_deltas, catalog_, &stats));
    Result<bool> del = RunDeletePhase(&old_copies, &removed_rows, &stats);
    if (!del.ok()) {
      inc_.reset();
      return del.status();
    }
    if (!del.value()) {
      // A delete gave up; the removals are already applied.
      std::vector<RelationDelta> inserts = deltas;
      for (RelationDelta& d : inserts) d.removed.clear();
      return recompute(inserts);
    }
  }

  // --- Insert phase: append, then re-drive from the new rows and from
  // the facts a delete reseeded. ---
  for (const RelationDelta& d : deltas) {
    if (d.added.empty()) continue;
    Relation* rel = catalog_->Find(d.relation);
    // Watermark first: rows appended past it are this batch's deltas.
    st->rel_watermarks[d.relation] = rel->size();
    std::vector<RelationDelta> one(1);
    one[0].relation = d.relation;
    one[0].added = d.added;
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(one, catalog_));
  }
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    // Most inserts into a min aggregate change no group, and then its
    // readers have nothing to drive.
    if (!st->SccHasNewInput(scc, *catalog_) && !st->HasPendingDelta(s)) {
      continue;
    }
    Status sync = st->SyncSccIndexes(scc, *catalog_);
    if (!sync.ok()) {
      inc_.reset();
      return sync;
    }
    IncrementalHooks hooks;
    hooks.retained = &st->replicas[s];
    hooks.adopt = true;
    hooks.update_mode = true;
    hooks.watermarks = &st->rel_watermarks;
    hooks.clock = &st->clock;
    SccExecutor executor(st->plan, scc, catalog_, st->base_indexes.get(),
                         options_, static_cast<uint32_t>(s), &hooks);
    Status run = executor.Run(&stats);
    if (!run.ok()) {
      inc_.reset();
      return run;
    }
    ++stats.num_sccs;
    // Materialize: kNone predicates append the retained tables' rows past
    // the replica watermarks in place; aggregate predicates move their
    // changed groups to the tail and append their new ones.
    for (const std::string& pred : scc.derived_preds) {
      const int canonical = scc.ReplicasOf(pred).front();
      Relation* rel = catalog_->Find(pred);
      if (st->plan.agg_specs.at(pred).func == AggFunc::kNone) {
        st->rel_watermarks[pred] = rel->size();
        for (uint32_t w = 0; w < options_.num_workers; ++w) {
          const RecursiveTable& table = *st->replicas[s][w][canonical];
          for (uint64_t r = st->replica_watermarks[s][w][canonical];
               r < table.rows().size(); ++r) {
            rel->Append(table.rows().Row(r));
          }
        }
      } else {
        Status sync = st->SyncAggregate(scc, s, pred, rel);
        if (!sync.ok()) {
          inc_.reset();
          return sync;
        }
      }
    }
    st->RecordSccWatermarks(s);
  }

  for (const std::string& name : catalog_->Names()) {
    st->rel_watermarks[name] = catalog_->Find(name)->size();
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<bool> Engine::RunDeletePhase(
    std::map<std::string, Relation>* old_copies,
    std::map<std::string, Relation>* removed_rows, EvalStats* stats) {
  IncrementalState* st = inc_.get();
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    std::set<std::string> removed_names;
    for (const auto& [name, rel] : *removed_rows) {
      if (!rel.empty()) removed_names.insert(name);
    }
    if (removed_names.empty()) break;
    if (!st->SccConsumesAny(scc, removed_names)) continue;
    DCD_ASSIGN_OR_RETURN(bool done,
                         DeleteFromScc(s, old_copies, removed_rows, stats));
    if (!done) return false;
  }
  return true;
}

Result<bool> Engine::DeleteFromScc(
    size_t scc_idx, std::map<std::string, Relation>* old_copies,
    std::map<std::string, Relation>* removed_rows, EvalStats* stats) {
  IncrementalState* st = inc_.get();
  // Stamps stay far from wrapping: a session this old recomputes, which
  // restarts its clock.
  if (st->clock >= (1u << 31)) return false;
  const SccPlan& scc = st->plan.sccs[scc_idx];
  const uint32_t n = options_.num_workers;
  auto& tables = st->replicas[scc_idx];

  BaseIndexSet old_indexes(st->plan.base_indexes);
  DeleteInput in;
  DCD_RETURN_IF_ERROR(st->PrepareDelete(scc_idx, *catalog_, *old_copies,
                                        *removed_rows, st->base_indexes.get(),
                                        &old_indexes, &in));
  in.run_gang = [this, stats](uint32_t k,
                              const std::function<void(uint32_t)>& fn) {
    RunGang(options_, k, stats, fn);
  };
  const DeleteResult del = RunDelete(in);
  stats->rederived_tuples += del.checked;
  if (!del.completed) return false;

  // Commit: the invalidated facts leave every replica partition and the
  // catalog relation, and their old rows go downstream as this SCC's
  // removed rows.
  for (uint32_t w = 0; w < n; ++w) {
    for (auto& table : tables[w]) table->RebindWriter();
  }
  for (size_t p = 0; p < scc.derived_preds.size(); ++p) {
    const std::string& pred = scc.derived_preds[p];
    const std::vector<int> reps = scc.ReplicasOf(pred);
    Relation gone(pred, st->plan.schemas.at(pred));
    for (uint32_t w = 0; w < n; ++w) {
      for (uint64_t row : del.invalidated[p][w]) {
        gone.Append(tables[w][reps[0]]->rows().Row(row));
      }
    }
    if (gone.empty()) continue;
    Relation* rel = catalog_->Find(pred);
    st->KeepOldCopy(pred, *rel, old_copies, stats);
    if (st->plan.agg_specs.at(pred).func == AggFunc::kNone) {
      std::vector<RelationDelta> removal(1);
      removal[0].relation = pred;
      for (uint64_t r = 0; r < gone.size(); ++r) {
        const TupleRef row = gone.Row(r);
        removal[0].removed.emplace_back(row.data, row.data + row.arity);
      }
      DCD_RETURN_IF_ERROR(st->RemoveFromCatalog(removal, catalog_, stats));
    } else {
      DCD_RETURN_IF_ERROR(
          st->EraseFromCatalog(scc, scc_idx, pred, del.invalidated[p], rel));
    }
    for (uint32_t w = 0; w < n; ++w) {
      tables[w][reps[0]]->RemoveRows(del.invalidated[p][w]);
    }
    // The other replicas hold the same rows, partitioned on other columns.
    for (size_t k = 1; k < reps.size(); ++k) {
      const ReplicaSpec& spec = scc.replicas[reps[k]];
      std::vector<std::vector<uint64_t>> ids(n);
      for (uint64_t r = 0; r < gone.size(); ++r) {
        const TupleRef row = gone.Row(r);
        const uint32_t w = PartitionOf(row[spec.partition_col], n);
        const uint64_t id = tables[w][reps[k]]->FindRowId(row);
        DCD_DCHECK(id != UINT64_MAX);
        if (id != UINT64_MAX) ids[w].push_back(id);
      }
      for (uint32_t w = 0; w < n; ++w) {
        std::sort(ids[w].begin(), ids[w].end());
        tables[w][reps[k]]->RemoveRows(ids[w]);
      }
    }
    st->rel_watermarks[pred] = rel->size();
    removed_rows->emplace(pred, std::move(gone));
  }
  st->RecordSccWatermarks(scc_idx);

  // Reseed: each reseed row re-enters every replica of its predicate as a
  // new row, stamped above every row the session holds; the insert phase
  // runs the SCC on from there.
  ++st->clock;
  for (size_t p = 0; p < scc.derived_preds.size(); ++p) {
    const std::vector<uint64_t>& rows = del.reseed[p];
    if (rows.empty()) continue;
    for (int r : scc.ReplicasOf(scc.derived_preds[p])) {
      const ReplicaSpec& spec = scc.replicas[r];
      const uint32_t arity = tables[0][r]->stored_arity();
      std::vector<std::vector<uint64_t>> parts(n);
      for (size_t i = 0; i < rows.size(); i += arity) {
        const uint32_t w = spec.partition_constant
                               ? 0
                               : PartitionOf(rows[i + spec.partition_col], n);
        parts[w].insert(parts[w].end(), &rows[i], &rows[i] + arity);
      }
      for (uint32_t w = 0; w < n; ++w) {
        if (parts[w].empty()) continue;
        RecursiveTable& table = *tables[w][r];
        table.SetMergeStamp(st->clock);
        table.MergeBatch(parts[w].data(), parts[w].size() / arity, arity);
      }
    }
  }
  return true;
}

Status Engine::CheckStampInvariant() {
  if (inc_ == nullptr) {
    return Status::InvalidArgument(
        "CheckStampInvariant requires an active incremental session");
  }
  IncrementalState* st = inc_.get();
  const std::map<std::string, Relation> none;
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    if (scc.check_rules.empty()) continue;
    // Indexes of its own: the check leaves the session's as they are.
    BaseIndexSet indexes(st->plan.base_indexes);
    DeleteInput in;
    DCD_RETURN_IF_ERROR(st->PrepareDelete(s, *catalog_, none, none, &indexes,
                                          &indexes, &in));
    DCD_RETURN_IF_ERROR(dcdatalog::CheckStampInvariant(in));
  }
  return Status::OK();
}

Status Engine::CheckIndexes() const {
  if (inc_ == nullptr) {
    return Status::InvalidArgument(
        "CheckIndexes requires an active incremental session");
  }
  const IncrementalState* st = inc_.get();
  DCD_RETURN_IF_ERROR(st->base_indexes->CheckIndexes());
  for (const auto& per_worker : st->replicas) {
    for (const auto& tables : per_worker) {
      for (const auto& table : tables) {
        DCD_RETURN_IF_ERROR(table->CheckIndexes());
      }
    }
  }
  for (const auto& [pred, layout] : st->layouts) {
    const Relation* rel = catalog_->Find(pred);
    size_t s = 0;
    while (st->plan.sccs[s].PredIdOf(pred) < 0) ++s;
    const int canonical = st->plan.sccs[s].ReplicasOf(pred).front();
    const auto broken = [&pred](const std::string& what) {
      return Status::Internal("catalog layout of '" + pred + "': " + what);
    };
    if (layout.owner.size() != rel->size()) {
      return broken("covers a different number of rows");
    }
    uint64_t placed = 0;
    for (uint32_t w = 0; w < layout.pos.size(); ++w) {
      const Relation& rows = st->replicas[s][w][canonical]->rows();
      if (layout.pos[w].size() != rows.size()) {
        return broken("misses rows of partition " + std::to_string(w));
      }
      for (uint64_t r = 0; r < rows.size(); ++r) {
        const uint64_t p = layout.pos[w][r];
        if (p >= rel->size() || layout.owner[p] != std::make_pair(w, r) ||
            !(rel->Row(p) == rows.Row(r))) {
          return broken("places partition " + std::to_string(w) + " row " +
                        std::to_string(r) + " wrongly");
        }
        ++placed;
      }
    }
    if (placed != rel->size()) return broken("is not onto its relation");
  }
  return Status::OK();
}

}  // namespace dcdatalog
