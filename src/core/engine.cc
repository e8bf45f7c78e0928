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
#include "common/numa_topology.h"
#include "common/timer.h"
#include "concurrent/barrier.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "concurrent/worker_pool.h"
#include "core/backward_forward.h"
#include "core/dws_controller.h"
#include "datalog/analysis.h"
#include "planner/logical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "runtime/distributor.h"
#include "runtime/message.h"
#include "runtime/pipeline.h"
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

/// One published morsel: a [begin, end) slice of the owner's driving-delta
/// snapshot for one replica (docs/INTERNALS.md §11). Life cycle is a strict
/// one-way CAS ladder per publication:
///   kEmpty --owner store--> kPublished --one CAS--> kClaimed --> kDone
/// The owner raises the termination detector's produced count before the
/// kPublished release-store, and only the single CAS winner (an idle thief,
/// or the owner reclaiming at iteration end) executes the slice, so the
/// slice runs exactly once and no termination round can succeed with a
/// morsel in flight. The snapshot pointer targets the owner's stack-held
/// LocalIteration snapshot, which outlives every slot: the owner does not
/// leave the iteration until each published slot has returned to kEmpty.
struct alignas(64) MorselSlot {
  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kPublished = 1;
  static constexpr uint32_t kClaimed = 2;
  static constexpr uint32_t kDone = 3;

  std::atomic<uint32_t> state{kEmpty};
  uint32_t replica = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
  const std::vector<TupleBuf>* snapshot = nullptr;
};

/// Per-worker steal slots. `available` is a fast-reject gate for thieves
/// (one acquire load skips scanning the slots of unloaded victims); only a
/// successful claim decrements it, so it can transiently overstate but
/// never undercount claimable slots.
struct alignas(64) StealBoard {
  static constexpr uint32_t kSlots = 8;
  std::atomic<uint32_t> available{0};
  MorselSlot slots[kSlots];
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
  /// On fresh builds, enable support counting on kNone flat tables so the
  /// counting delete path can maintain them later.
  bool enable_counts = false;
  /// Phase 0 drives the SCC's update rules over rows past the relation
  /// watermarks instead of the base rules over whole relations, and
  /// materialization is left to the engine (watermark-append).
  bool update_mode = false;
  /// Relation name -> row count before this batch's appends. Missing
  /// entries mean "nothing new".
  const std::map<std::string, uint64_t>* watermarks = nullptr;
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
        ssp_iters_(options.num_workers) {
    // Per-queue capacity shrinks as the worker grid grows so the n² rings
    // stay within a sane memory budget. spsc_capacity is expressed in
    // tuples; a block packs ~kMsgBlockWords/2 binary tuples, so dividing by
    // that keeps the tuple capacity in the configured ballpark.
    const uint32_t per_queue_tuples = std::max<uint32_t>(
        512, options_.spsc_capacity / std::max<uint32_t>(1, n_ / 8));
    per_queue_blocks_ =
        std::max<uint32_t>(8, per_queue_tuples / (kMsgBlockWords / 2));
    // Rings are NOT built here: each worker constructs its own inbound
    // column at WorkerMain start so the ring slots (value-semantics
    // MsgBlocks, the bulk of the grid's memory) are first-touch local to
    // their consumer's NUMA node; the startup barrier publishes them
    // before any producer can push (docs/INTERNALS.md §11).
    queues_.resize(static_cast<size_t>(n_) * n_);
    steal_boards_.reserve(n_);
    for (uint32_t i = 0; i < n_; ++i) {
      steal_boards_.push_back(std::make_unique<StealBoard>());
    }
    if (options_.numa == NumaMode::kAuto &&
        options_.worker_pool == nullptr && n_ > 1) {
      numa_topo_ = NumaTopology::Probe();
    }
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
    uint64_t cache_hits = 0;
    uint64_t merge_probe_cmps = 0;
    uint64_t pipeline_batches = 0;
    uint64_t pipeline_rows_selected = 0;
    uint64_t morsels_published = 0;
    uint64_t morsels_stolen = 0;
    uint64_t tuples_stolen = 0;
    int64_t idle_ns = 0;
  };

  /// Everything one worker thread owns while the SCC runs.
  struct WorkerContext {
    uint32_t wid = 0;
    SccExecutor* exec = nullptr;
    std::vector<std::unique_ptr<RecursiveTable>>* replicas = nullptr;
    std::vector<uint64_t> regs;
    /// Batch-at-a-time executor state (columnar banks, selection vectors);
    /// reused across rules and iterations so steady-state batches never
    /// allocate. Untouched under --pipeline-executor=tuple.
    BatchPipelineRunner batch_runner;
    std::unique_ptr<Distributor> distributor;
    DwsController dws;
    std::vector<std::vector<TupleBuf>> gather_scratch;  // Per replica.
    std::vector<MsgBlock> block_scratch;
    uint64_t local_iter = 0;
    int64_t idle_ns = 0;
    /// True while this worker must not merge into its replicas: from the
    /// moment it publishes (or claims) morsels that probe replica tables
    /// read-only, until the last such morsel completes. GatherAll then
    /// drains rings into gather_scratch without the MergeBatch pass; the
    /// deferred tuples merge on the first GatherAll after the flag clears.
    bool defer_merges = false;
    /// Owner-side bound per replica while morsels are outstanding: the
    /// prefix of the delta snapshot this worker runs itself (published
    /// tails belong to whoever claims them).
    std::vector<uint64_t> steal_limit;
    uint64_t morsels_published = 0;
    uint64_t morsels_stolen = 0;
    uint64_t tuples_stolen = 0;
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
    // NUMA placement first, before any allocation: the replicas, register
    // banks, distributor staging blocks, and this worker's inbound rings
    // are all first-touched below, so pinning here makes every one of them
    // node-local. Dedicated threads only — a shared pool's threads serve
    // many sessions and are never re-pinned. Single-node topologies make
    // this a no-op (MultiNode is false).
    if (numa_topo_.MultiNode()) {
      PinThreadToNode(numa_topo_, numa_topo_.NodeForWorker(wid));
    }
    // Consumer-local ring construction: worker w builds its own inbound
    // column (queues_[j*n + w] for all j), so ring slots — the 2 KiB block
    // array each queue owns — live on the consumer's node and a producer's
    // push is the only cross-socket transfer, always a whole block. The
    // barrier publishes the unique_ptr stores (release on arrival, acquire
    // on departure) before any producer can route a tuple.
    for (uint32_t j = 0; j < n_; ++j) {
      queues_[static_cast<size_t>(j) * n_ + wid] =
          std::make_unique<BlockQueue>(per_queue_blocks_);
    }
    barrier_.Wait();

    WorkerContext ctx(n_, options_);
    ctx.wid = wid;
    ctx.exec = this;
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
        if (hooks_ != nullptr && hooks_->enable_counts &&
            replicas.back()->agg_spec().func == AggFunc::kNone) {
          replicas.back()->EnableSupportCounts();
        }
      }
    }
    ctx.replicas = &replicas;
    ctx.gather_scratch.resize(replicas.size());
    ctx.steal_limit.resize(replicas.size());

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

    // Register scratch sized for the widest rule.
    uint32_t max_regs = 1;
    for (const PhysicalRule& r : scc_.base_rules) {
      max_regs = std::max(max_regs, r.num_regs);
    }
    for (const PhysicalRule& r : scc_.delta_rules) {
      max_regs = std::max(max_regs, r.num_regs);
    }
    for (const PhysicalRule& r : scc_.update_rules) {
      max_regs = std::max(max_regs, r.num_regs);
    }
    ctx.regs.assign(max_regs, 0);

    // Sink thunks take the WorkerContext through the {fn, ctx} pair — ctx
    // lives on this frame for the whole SCC run, and carries the exec
    // pointer for the backpressure path. Plain function pointers, not
    // std::function: the send path is per-block and the self-loop path is
    // per-tuple, and both thunks are registered deepcheck hot roots (the
    // analyzer verifies them from their own entry, since it cannot see
    // through the pointer).
    ctx.distributor = std::make_unique<Distributor>(
        &scc_, n_, wid, options_.enable_partial_aggregation,
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
      ws.cache_hits += table->cache_hits();
      ws.merge_probe_cmps += table->merge_probe_cmps();
    }
    ws.pipeline_batches = ctx.batch_runner.batches();
    ws.pipeline_rows_selected = ctx.batch_runner.rows_selected();
    ws.morsels_published = ctx.morsels_published;
    ws.morsels_stolen = ctx.morsels_stolen;
    ws.tuples_stolen = ctx.tuples_stolen;
  }

  /// Non-allocating emit thunks (EmitSink / BatchEmitSink): plain function
  /// pointers plus a stack-held context, replacing the old per-rule
  /// capturing std::function.
  struct RuleEmitCtx {
    WorkerContext* ctx;
    const PhysicalRule* rule;
  };

  DCD_HOT_ROOT static void EmitTupleThunk(void* c, const uint64_t* regs) {
    auto* e = static_cast<RuleEmitCtx*>(c);
    uint64_t wire[kMaxWireWords];
    BuildWireTuple(e->rule->head, regs, wire);
    e->ctx->distributor->Emit(e->rule->head, wire);
  }

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
    ctx->gather_scratch[replica].push_back(TupleBuf::FromWords(wire, arity));
  }

  void RunBaseRules(WorkerContext* ctx) {
    PipelineContext pctx;
    pctx.catalog = catalog_;
    pctx.base_indexes = base_indexes_;
    pctx.replicas = ctx->replicas;
    pctx.regs = ctx->regs.data();

    const bool batch =
        options_.pipeline_executor == PipelineExecutor::kBatch;
    for (const PhysicalRule& rule : scc_.base_rules) {
      PreparePipeline(rule, &pctx);
      RuleEmitCtx ectx{ctx, &rule};
      const EmitSink emit{&EmitTupleThunk, &ectx};
      const BatchEmitSink batch_emit{&EmitBatchThunk, ctx};
      if (rule.driving_is_unit) {
        if (ctx->wid == 0) {
          if (batch) {
            ctx->batch_runner.RunUnit(rule, &pctx, batch_emit);
          } else {
            RunPipelineUnit(rule, pctx, emit);
          }
        }
        continue;
      }
      const Relation* rel = catalog_->Find(rule.driving_relation);
      DCD_CHECK(rel != nullptr);
      const uint64_t size = rel->size();
      const uint64_t begin = size * ctx->wid / n_;
      const uint64_t end = size * (ctx->wid + 1) / n_;
      if (batch) {
        ctx->batch_runner.Begin(rule, &pctx, batch_emit);
        for (uint64_t r = begin; r < end; ++r) {
          ctx->batch_runner.Push(rel->Row(r));
        }
        ctx->batch_runner.Finish();
      } else {
        for (uint64_t r = begin; r < end; ++r) {
          RunPipelineForTuple(rule, pctx, rel->Row(r), emit);
        }
      }
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
    pctx.regs = ctx->regs.data();

    const bool batch =
        options_.pipeline_executor == PipelineExecutor::kBatch;
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
      RuleEmitCtx ectx{ctx, &rule};
      const EmitSink emit{&EmitTupleThunk, &ectx};
      const BatchEmitSink batch_emit{&EmitBatchThunk, ctx};
      if (rule.update_partition_col >= 0) {
        const uint32_t col = static_cast<uint32_t>(rule.update_partition_col);
        if (batch) {
          ctx->batch_runner.Begin(rule, &pctx, batch_emit);
          for (uint64_t r = wm; r < size; ++r) {
            TupleRef row = rel->Row(r);
            if (PartitionOf(row.data[col], n_) != ctx->wid) continue;
            ctx->batch_runner.Push(row);
          }
          ctx->batch_runner.Finish();
        } else {
          for (uint64_t r = wm; r < size; ++r) {
            TupleRef row = rel->Row(r);
            if (PartitionOf(row.data[col], n_) != ctx->wid) continue;
            RunPipelineForTuple(rule, pctx, row, emit);
          }
        }
      } else {
        const uint64_t fresh = size - wm;
        const uint64_t begin = wm + fresh * ctx->wid / n_;
        const uint64_t end = wm + fresh * (ctx->wid + 1) / n_;
        if (batch) {
          ctx->batch_runner.Begin(rule, &pctx, batch_emit);
          for (uint64_t r = begin; r < end; ++r) {
            ctx->batch_runner.Push(rel->Row(r));
          }
          ctx->batch_runner.Finish();
        } else {
          for (uint64_t r = begin; r < end; ++r) {
            RunPipelineForTuple(rule, pctx, rel->Row(r), emit);
          }
        }
      }
    }
  }

  /// Drains every incoming buffer once, unpacks the blocks, and merges into
  /// the replicas (together with any tuples the self-loop bypass already
  /// parked in the gather scratch). Returns the number of ring tuples
  /// consumed — the quantity charged to the termination detector.
  DCD_HOT_ROOT uint64_t GatherAll(WorkerContext* ctx) {
    DCD_CHAOS_POINT(kGather);
    uint64_t total = 0;
    const int64_t now = MonotonicNanos();
    for (uint32_t j = 0; j < n_; ++j) {
      ctx->block_scratch.clear();
      BlockQueue& q = Queue(j, ctx->wid);
      q.ring.PopBatch(&ctx->block_scratch);
      uint64_t drained = 0;
      for (const MsgBlock& block : ctx->block_scratch) {
        auto& batch = ctx->gather_scratch[block.tag];
        for (uint32_t t = 0; t < block.count; ++t) {
          batch.push_back(TupleBuf::FromWords(block.Tuple(t), block.arity));
        }
        drained += block.count;
      }
      if (drained > 0) q.tuples.fetch_sub(drained, std::memory_order_relaxed);
      ctx->dws.OnDrain(j, drained, now);
      total += drained;
    }
    // While morsels against this worker's replicas are outstanding (its own
    // publications, or a claim it is executing), merging would mutate
    // tables a concurrent read-only executor is probing — so the drain
    // stops here and the scratch carries the tuples until the first
    // GatherAll after the flag clears (the same deferred-merge treatment
    // self-loop tuples always get). Ring and detector accounting above are
    // unaffected: the tuples left their rings either way.
    if (!ctx->defer_merges) {
      for (size_t r = 0; r < ctx->gather_scratch.size(); ++r) {
        auto& batch = ctx->gather_scratch[r];
        if (batch.empty()) continue;
        (*ctx->replicas)[r]->MergeBatch(batch);
        batch.clear();
      }
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

  // --- Skew-adaptive morsel stealing (docs/INTERNALS.md §11) ---------------

  /// Publishes the tail of this iteration's driving snapshots as fixed-size
  /// morsels when the backlog exceeds the adaptive threshold. Returns the
  /// number of slots published (0 = nothing offered; the iteration runs
  /// exactly as before). On publish, the worker enters deferred-merge mode:
  /// from the first kPublished release-store until ResolveMorsels clears
  /// it, thieves may be probing this worker's replica tables, so no merge
  /// may mutate them.
  DCD_HOT_ROOT uint32_t PublishMorsels(
      WorkerContext* ctx, std::vector<std::vector<TupleBuf>>* snapshots,
      uint64_t processed) {
    if (!options_.enable_steal || n_ <= 1) return 0;
    const uint64_t morsel = options_.steal_morsel_tuples;
    // Adaptive threshold: an explicit floor if configured, else twice the
    // live DWS ω estimate (the controller's tuples-per-iteration operating
    // point, fed by the drain/iteration statistics every strategy collects)
    // with a two-morsel floor. Uniform workloads keep every worker's
    // backlog near ω, so nothing is published and steal-on stays at
    // steal-off cost; a hub partition's backlog dwarfs ω and spills.
    const uint64_t threshold =
        options_.steal_min_backlog != 0
            ? options_.steal_min_backlog
            : std::max<uint64_t>(
                  2 * morsel,
                  2 * static_cast<uint64_t>(std::max(0.0, ctx->dws.omega())));
    if (processed <= threshold) return 0;
    StealBoard& board = *steal_boards_[ctx->wid];
    uint32_t pubs = 0;
    uint64_t offered = 0;
    for (size_t r = 0;
         r < snapshots->size() && pubs < StealBoard::kSlots; ++r) {
      const auto& snap = (*snapshots)[r];
      if (snap.size() >= UINT32_MAX) continue;  // Slot offsets are 32-bit.
      // The owner keeps at least its fair 1/n share (and one morsel) —
      // stealing pays off only for the excess a single owner would
      // otherwise serialize.
      const uint64_t keep = std::max<uint64_t>(morsel, snap.size() / n_);
      while (pubs < StealBoard::kSlots &&
             ctx->steal_limit[r] >= keep + morsel) {
        MorselSlot& s = board.slots[pubs];
        ctx->steal_limit[r] -= morsel;
        s.replica = static_cast<uint32_t>(r);
        s.begin = static_cast<uint32_t>(ctx->steal_limit[r]);
        s.end = static_cast<uint32_t>(ctx->steal_limit[r] + morsel);
        s.snapshot = &snap;
        if (pubs == 0) ctx->defer_merges = true;
        // Produced rises before the slot becomes claimable, so a
        // termination round can never miss an in-flight morsel.
        detector_.OnMorselPublished(morsel);
        s.state.store(MorselSlot::kPublished, std::memory_order_release);
        ++pubs;
        offered += morsel;
      }
    }
    if (pubs == 0) return 0;
    // Thief fast-reject gate; claims synchronize on the per-slot CAS, this
    // is only a hint (reset by ResolveMorsels, never written by thieves).
    board.available.store(pubs, std::memory_order_release);
    ctx->morsels_published += pubs;
    ctx->Instant(TraceEventKind::kMorselPublish, offered, scc_ordinal_);
    return pubs;
  }

  /// Executes one morsel: the delta rules driven by the morsel's replica,
  /// over snapshot[begin, end), probing `tables` — the OWNER's replicas —
  /// strictly read-only, and emitting through the CALLING worker's own
  /// Distributor so derived tuples take the normal partition routing and
  /// merge ownership never moves. Alloc-free on the steady path: the
  /// caller's register bank and batch runner are reused, and
  /// PreparePipeline's catalog lookup short-circuits for index-join rules
  /// exactly as in LocalIteration.
  DCD_HOT_ROOT void RunMorsel(WorkerContext* ctx,
                              std::vector<std::unique_ptr<RecursiveTable>>*
                                  tables,
                              const MorselSlot& m) {
    PipelineContext pctx;
    pctx.catalog = catalog_;
    pctx.base_indexes = base_indexes_;
    pctx.replicas = tables;
    pctx.regs = ctx->regs.data();
    const uint32_t arity = (*tables)[m.replica]->stored_arity();
    const bool batch =
        options_.pipeline_executor == PipelineExecutor::kBatch;
    for (int rule_idx : scc_.delta_rules_by_replica[m.replica]) {
      const PhysicalRule& rule = scc_.delta_rules[rule_idx];
      PreparePipeline(rule, &pctx);
      if (batch) {
        const BatchEmitSink batch_emit{&EmitBatchThunk, ctx};
        ctx->batch_runner.Begin(rule, &pctx, batch_emit);
        for (uint32_t t = m.begin; t < m.end; ++t) {
          ctx->batch_runner.Push((*m.snapshot)[t].Ref(arity));
        }
        ctx->batch_runner.Finish();
      } else {
        RuleEmitCtx ectx{ctx, &rule};
        const EmitSink emit{&EmitTupleThunk, &ectx};
        for (uint32_t t = m.begin; t < m.end; ++t) {
          RunPipelineForTuple(rule, pctx, (*m.snapshot)[t].Ref(arity), emit);
        }
      }
    }
  }

  /// Mid-iteration slot re-arm (the steal board is refillable, not
  /// one-shot): while the owner grinds its kept prefix it periodically
  /// sweeps the board, retires kDone slots (the thief already balanced the
  /// detector), and republishes the freed slots with fresh tail morsels
  /// from the CURRENT rule's remaining range. Thieves that drain fast thus
  /// keep receiving work instead of idling after the initial eight slots —
  /// without this, one publish round caps the offload at kSlots morsels
  /// per iteration no matter how deep the hub backlog is. Only called when
  /// the driving replica has exactly one delta rule, so the handed-off
  /// tail [new_limit, old_limit) has not been (and will not be) driven by
  /// any other rule the owner already ran. `done_prefix` is the owner's
  /// progress through the kept prefix; every re-arm leaves the owner at
  /// least one morsel of runway so it never starves into the resolve wait.
  /// Returns the new slot high-water mark for ResolveMorsels.
  DCD_HOT_ROOT uint32_t TopUpMorsels(WorkerContext* ctx,
                                     const std::vector<TupleBuf>& snap,
                                     size_t r, uint64_t done_prefix,
                                     uint32_t pubs) {
    if (snap.size() >= UINT32_MAX) return pubs;  // Slot offsets are 32-bit.
    const uint64_t morsel = options_.steal_morsel_tuples;
    StealBoard& board = *steal_boards_[ctx->wid];
    uint32_t armed = 0;
    uint64_t offered = 0;
    for (uint32_t i = 0; i < StealBoard::kSlots; ++i) {
      MorselSlot& s = board.slots[i];
      const uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == MorselSlot::kDone) {
        // Thief finished and fully accounted this slice; the slot is ours
        // again (only the owner transitions kDone -> kEmpty).
        s.state.store(MorselSlot::kEmpty, std::memory_order_relaxed);
      } else if (st != MorselSlot::kEmpty) {
        continue;  // kPublished or kClaimed: still in flight.
      }
      if (ctx->steal_limit[r] < done_prefix + 2 * morsel) continue;
      ctx->steal_limit[r] -= morsel;
      s.replica = static_cast<uint32_t>(r);
      s.begin = static_cast<uint32_t>(ctx->steal_limit[r]);
      s.end = static_cast<uint32_t>(ctx->steal_limit[r] + morsel);
      s.snapshot = &snap;
      detector_.OnMorselPublished(morsel);
      s.state.store(MorselSlot::kPublished, std::memory_order_release);
      if (i + 1 > pubs) pubs = i + 1;
      ++armed;
      offered += morsel;
    }
    if (armed > 0) {
      board.available.store(pubs, std::memory_order_release);
      ctx->morsels_published += armed;
      ctx->Instant(TraceEventKind::kMorselPublish, offered, scc_ordinal_);
    }
    return pubs;
  }

  /// Owner-side epilogue of a publishing iteration: every published slot is
  /// either reclaimed (one CAS wins the race against thieves, then the
  /// owner runs the slice itself) or, if a thief won, waited on until
  /// kDone. The wait drains this worker's rings so a thief blocked pushing
  /// to us always progresses; it ignores the abort flag because the thief
  /// is bounded either way (its pushes return immediately once aborted).
  /// Clears deferred-merge mode — the snapshots the slots point into stay
  /// alive (caller's frame) until after this returns.
  DCD_HOT_ROOT void ResolveMorsels(WorkerContext* ctx, uint32_t pubs) {
    StealBoard& board = *steal_boards_[ctx->wid];
    for (uint32_t i = 0; i < pubs; ++i) {
      MorselSlot& s = board.slots[i];
      if (s.state.load(std::memory_order_acquire) == MorselSlot::kEmpty) {
        // Re-armed and retired by a TopUpMorsels sweep; already balanced.
        continue;
      }
      uint32_t expected = MorselSlot::kPublished;
      if (s.state.compare_exchange_strong(expected, MorselSlot::kClaimed,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        // Unclaimed: the owner runs its own publication. Same read-only
        // scope as a thief — the shared tables must not be mutated while
        // later slots may still be claimed.
        DCD_AFFINITY_MORSEL_SCOPE();
        RunMorsel(ctx, ctx->replicas, s);
        detector_.OnMorselExecuted(ctx->wid, s.end - s.begin);
        s.state.store(MorselSlot::kEmpty, std::memory_order_relaxed);
        continue;
      }
      while (s.state.load(std::memory_order_acquire) != MorselSlot::kDone) {
        if (GatherAll(ctx) == 0) std::this_thread::yield();
      }
      s.state.store(MorselSlot::kEmpty, std::memory_order_relaxed);
    }
    board.available.store(0, std::memory_order_release);
    ctx->defer_merges = false;
  }

  /// Idle-side steal attempt: scan the other workers' boards and claim one
  /// published morsel with a single CAS. The claim loop is alloc-, mutex-
  /// and virtual-free — an unloaded victim costs one acquire load. Returns
  /// true if a morsel was executed (the caller should re-gather: the
  /// deferred scratch now holds unmerged tuples).
  DCD_HOT_ROOT bool TrySteal(WorkerContext* ctx) {
    if (!options_.enable_steal || n_ <= 1) return false;
    for (uint32_t d = 1; d < n_; ++d) {
      const uint32_t victim = (ctx->wid + d) % n_;
      StealBoard& board = *steal_boards_[victim];
      if (board.available.load(std::memory_order_acquire) == 0) continue;
      for (uint32_t i = 0; i < StealBoard::kSlots; ++i) {
        MorselSlot& s = board.slots[i];
        if (s.state.load(std::memory_order_acquire) !=
            MorselSlot::kPublished) {
          continue;
        }
        uint32_t expected = MorselSlot::kPublished;
        if (!s.state.compare_exchange_strong(expected, MorselSlot::kClaimed,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
          continue;
        }
        // Claimed. Activate first: from here until OnMorselExecuted
        // balances the published produced count, no termination round may
        // pass with this morsel's derivations unaccounted.
        detector_.Activate(ctx->wid);
        const uint64_t count = s.end - s.begin;
        {
          // Read-only executor role for the victim's tables; our own
          // merges are deferred too, since GatherAll runs inside the
          // backpressure path while the scope is active.
          DCD_AFFINITY_MORSEL_SCOPE();
          ctx->defer_merges = true;
          RunMorsel(ctx, &worker_replicas_[victim], s);
          // Flush before the consumed-side accounting: once the detector
          // is balanced, nothing may linger in this worker's staging.
          ctx->distributor->Flush();
          ctx->defer_merges = false;
        }
        detector_.OnMorselExecuted(ctx->wid, count);
        ctx->morsels_stolen += 1;
        ctx->tuples_stolen += count;
        if (ctx->ring.enabled()) {
          const int64_t now = MonotonicNanos();
          TraceEvent ev;
          ev.kind = TraceEventKind::kSteal;
          ev.worker = ctx->wid;
          ev.scc = scc_ordinal_;
          ev.start_ns = now;
          ev.end_ns = now;
          ev.tuples = count;
          ev.omega = static_cast<double>(victim);
          ctx->ring.Append(ev);
        }
        s.state.store(MorselSlot::kDone, std::memory_order_release);
        return true;
      }
    }
    return false;
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
      ctx->steal_limit[r] = snapshots[r].size();
    }
    // Skew adaptation: a backlog past the adaptive threshold publishes its
    // tail as morsels before the rules run, shrinking steal_limit so this
    // worker only drives the prefix it kept (docs/INTERNALS.md §11).
    uint32_t pubs = PublishMorsels(ctx, &snapshots, processed);

    PipelineContext pctx;
    pctx.catalog = catalog_;
    pctx.base_indexes = base_indexes_;
    pctx.replicas = ctx->replicas;
    pctx.regs = ctx->regs.data();

    const bool batch =
        options_.pipeline_executor == PipelineExecutor::kBatch;
    for (const PhysicalRule& rule : scc_.delta_rules) {
      const size_t dr = rule.driving_replica;
      const auto& snapshot = snapshots[dr];
      if (ctx->steal_limit[dr] == 0) continue;
      PreparePipeline(rule, &pctx);
      const uint32_t arity = (*ctx->replicas)[dr]->stored_arity();
      // Re-arming tail morsels mid-rule is only sound when no other rule
      // drives this replica: the handed-off range must not already have
      // been driven (dup work) nor still be owed to a later rule (the
      // thief runs every delta rule for the replica over its slice).
      const bool top_up =
          pubs > 0 && scc_.delta_rules_by_replica[dr].size() == 1;
      const uint64_t chunk = options_.steal_morsel_tuples;
      if (batch) {
        const BatchEmitSink batch_emit{&EmitBatchThunk, ctx};
        ctx->batch_runner.Begin(rule, &pctx, batch_emit);
        uint64_t t = 0;
        while (t < ctx->steal_limit[dr]) {
          // steal_limit shrinks under TopUpMorsels, so re-read per chunk.
          const uint64_t stop =
              top_up ? std::min(ctx->steal_limit[dr], t + chunk)
                     : ctx->steal_limit[dr];
          for (; t < stop; ++t) {
            ctx->batch_runner.Push(snapshot[t].Ref(arity));
          }
          if (top_up && t < ctx->steal_limit[dr]) {
            pubs = TopUpMorsels(ctx, snapshot, dr, t, pubs);
          }
        }
        ctx->batch_runner.Finish();
      } else {
        RuleEmitCtx ectx{ctx, &rule};
        const EmitSink emit{&EmitTupleThunk, &ectx};
        uint64_t t = 0;
        while (t < ctx->steal_limit[dr]) {
          const uint64_t stop =
              top_up ? std::min(ctx->steal_limit[dr], t + chunk)
                     : ctx->steal_limit[dr];
          for (; t < stop; ++t) {
            RunPipelineForTuple(rule, pctx, snapshot[t].Ref(arity), emit);
          }
          if (top_up && t < ctx->steal_limit[dr]) {
            pubs = TopUpMorsels(ctx, snapshot, dr, t, pubs);
          }
        }
      }
    }
    if (pubs > 0) ResolveMorsels(ctx, pubs);
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
      // Parked with nothing to do: convert the spin into useful work on a
      // loaded worker's backlog. On success, loop — the next GatherAll
      // merges the deferred scratch and re-checks our own delta.
      if (TrySteal(ctx)) continue;
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
    // A barrier waiter also probes the steal boards: under Global, the
    // whole gang idles at the post-iteration barrier while one hub owner
    // grinds — exactly the serialization morsel stealing removes.
    const auto drain_idle = [this, ctx] {
      GatherAll(ctx);
      TrySteal(ctx);
    };
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
          // Slack-blocked is idle time too; the slowest worker the slack
          // bound is waiting on is the likeliest publisher.
          TrySteal(ctx);
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
          // A wait slice that can execute a stolen morsel skips the sleep:
          // the τ budget was going to be burned idle either way, and the
          // steal feeds this worker's rings faster than waiting would.
          if (!TrySteal(ctx)) {
            // The τ-capped sleep IS DWS's coordination mechanism, not
            // incidental blocking — the strategy trades a bounded wait for
            // a bigger batch.
            DCD_COLD_CALL("DWS τ-capped wait slice is the strategy itself, Algorithm 2 line 7");
            // dcd-lint: allow(hot-path-mutex): DWS bounded wait, Algorithm 2 line 7
            std::this_thread::sleep_for(std::chrono::microseconds(
                options_.dws_max_wait_slice_us));
          }
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
      stats->cache_hits += ws.cache_hits;
      stats->merge_probe_cmps += ws.merge_probe_cmps;
      stats->pipeline_batches += ws.pipeline_batches;
      stats->pipeline_rows_selected += ws.pipeline_rows_selected;
      stats->morsels_published += ws.morsels_published;
      stats->morsels_stolen += ws.morsels_stolen;
      stats->tuples_stolen += ws.tuples_stolen;
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
  /// Probed only for dedicated-thread multi-worker runs with numa=auto;
  /// empty (MultiNode false) otherwise.
  NumaTopology numa_topo_;

  std::vector<std::unique_ptr<BlockQueue>> queues_;
  std::vector<std::unique_ptr<StealBoard>> steal_boards_;
  TerminationDetector detector_;
  SpinBarrier barrier_;
  std::atomic<uint64_t> round_delta_{0};
  std::atomic<bool> global_done_{false};
  std::vector<PaddedU64> ssp_iters_;
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
      {"delta_tuples_in", static_cast<double>(delta_tuples_in)},
      {"rederived_tuples", static_cast<double>(rederived_tuples)},
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

/// True when every rule of the SCC has at most one positive body atom over
/// an `affected` relation. The counting paths need this in both directions:
/// on delete, a rule with two removal-affected atoms loses derivations
/// whose exact count needs inclusion–exclusion (so decrement-driving each
/// removed relation independently over-deletes); on insert, two
/// insert-affected atoms mean the rule's update versions derive the
/// new×new instantiations from both sides, over-incrementing the counts.
bool AtMostOneAffectedAtomPerRule(const Program& program,
                                  const ProgramAnalysis& analysis,
                                  const SccPlan& scc,
                                  const std::set<std::string>& affected) {
  const SccInfo& info = analysis.sccs()[scc.scc_id];
  for (int r : info.rule_indices) {
    uint32_t hit = 0;
    for (const BodyLiteral& lit : program.rules[r].body) {
      if (lit.kind != BodyLiteral::Kind::kAtom || lit.negated) continue;
      if (affected.count(lit.atom.predicate) > 0) ++hit;
    }
    if (hit >= 2) return false;
  }
  return true;
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
  /// Per SCC: the support counts are live and exact, so the counting
  /// delete path may use them. Cleared permanently (until the next full
  /// run) when a batch's structure would let them drift.
  std::vector<char> counts_valid;
  /// Relation name → row count at the last sync.
  std::map<std::string, uint64_t> rel_watermarks;
  /// Base-index ids by backing relation, for targeted invalidation.
  std::map<std::string, std::vector<int>> indexes_by_rel;

  // Eligibility metadata, read off the program text once.
  std::set<std::string> negated_rels;  // Appears under negation.
  std::set<std::string> agg_preds;     // Aggregate-headed predicates.
  std::set<std::string> sum_preds;     // kSum-headed predicates.
  std::set<std::string> body_preds;    // Appears as a positive body atom.
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

  void InvalidateIndexesOver(const std::string& rel) {
    auto it = indexes_by_rel.find(rel);
    if (it == indexes_by_rel.end()) return;
    for (int id : it->second) base_indexes->Invalidate(id);
  }

  void RecordSccWatermarks(size_t s) {
    auto& per_worker = replica_watermarks[s];
    per_worker.resize(replicas[s].size());
    for (size_t w = 0; w < replicas[s].size(); ++w) {
      per_worker[w].resize(replicas[s][w].size());
      for (size_t r = 0; r < replicas[s][w].size(); ++r) {
        per_worker[w][r] = replicas[s][w][r]->rows().size();
      }
    }
  }

  /// True when a rule outside the SCC consumes `pred` (positive body atom).
  bool ConsumedDownstream(const SccPlan& scc, const std::string& pred) const {
    auto it = consumers.find(pred);
    if (it == consumers.end()) return false;
    for (const std::string& head : it->second) {
      if (scc.PredIdOf(head) < 0) return true;
    }
    return false;
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
    if (rule.head.HasAggregate()) {
      state->agg_preds.insert(rule.head.predicate);
      for (const HeadArg& arg : rule.head.args) {
        if (arg.agg == AggFunc::kSum) {
          state->sum_preds.insert(rule.head.predicate);
        }
      }
    }
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kAtom) continue;
      if (lit.negated) {
        state->negated_rels.insert(lit.atom.predicate);
        continue;
      }
      state->body_preds.insert(lit.atom.predicate);
      state->consumers[lit.atom.predicate].insert(rule.head.predicate);
    }
  }
  for (size_t i = 0; i < state->plan.base_indexes.size(); ++i) {
    state->indexes_by_rel[state->plan.base_indexes[i].relation].push_back(
        static_cast<int>(i));
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
  st->counts_valid.assign(st->plan.sccs.size(), 0);
  const bool flat =
      options_.merge_index_backend == MergeIndexBackend::kFlat;
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    DCD_RETURN_IF_ERROR(st->SyncSccIndexes(scc, *catalog_));
    // Support counting rides beside kNone flat existence sets in
    // non-recursive SCCs, where arrivals equal derivations exactly.
    bool counts = flat && !scc.recursive && st->have_update_rules;
    for (const std::string& pred : scc.derived_preds) {
      if (st->plan.agg_specs.at(pred).func != AggFunc::kNone) counts = false;
    }
    auto& retained = st->replicas[s];
    retained.clear();
    retained.resize(options_.num_workers);
    IncrementalHooks hooks;
    hooks.retained = &retained;
    hooks.enable_counts = counts;
    SccExecutor executor(st->plan, scc, catalog_, st->base_indexes.get(),
                         options_, static_cast<uint32_t>(s), &hooks);
    DCD_RETURN_IF_ERROR(executor.Run(&stats));
    ++stats.num_sccs;
    st->counts_valid[s] = counts ? 1 : 0;
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

  DCD_ASSIGN_OR_RETURN(std::vector<RelationDelta> deltas,
                       NetOutBatch(batch, *catalog_));
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
    // min/max/count absorb extra derivations monotonically, but a change
    // flowing *through* an aggregate (consumed downstream) can retract
    // previously-derived facts, and a kSum merge replaces a contributor's
    // value — neither is a monotone re-entry.
    if (st->agg_preds.count(p) > 0 && st->body_preds.count(p) > 0) {
      fallback = true;
    }
    if (st->sum_preds.count(p) > 0) fallback = true;
    if (removals && st->agg_preds.count(p) > 0) fallback = true;
    if (std::find(st->plan.update_ineligible_rels.begin(),
                  st->plan.update_ineligible_rels.end(),
                  p) != st->plan.update_ineligible_rels.end()) {
      fallback = true;
    }
    // Backward/Forward needs a check version of every rule of the SCC.
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
    out.update_batches = stats.update_batches;
    out.delta_tuples_in = stats.delta_tuples_in;
    out.rederived_tuples += stats.rederived_tuples;
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
      Relation* rel = catalog_->Find(d.relation);
      old_copies.emplace(d.relation, *rel);
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
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(removal_deltas, catalog_));
    for (const auto& [name, rm] : removed_rows) {
      st->InvalidateIndexesOver(name);
    }
    Result<bool> del = RunDeletePhase(&old_copies, &removed_rows, &stats);
    if (!del.ok()) {
      inc_.reset();
      return del.status();
    }
    if (!del.value()) {
      // Backward/Forward gave up; the removals are already applied.
      std::vector<RelationDelta> inserts = deltas;
      for (RelationDelta& d : inserts) d.removed.clear();
      return recompute(inserts);
    }
  }

  // --- Insert phase: append, then re-drive from the new rows. ---
  std::set<std::string> added_rels;
  for (const RelationDelta& d : deltas) {
    if (d.added.empty()) continue;
    Relation* rel = catalog_->Find(d.relation);
    // Watermark first: rows appended past it are this batch's deltas.
    st->rel_watermarks[d.relation] = rel->size();
    std::vector<RelationDelta> one(1);
    one[0].relation = d.relation;
    one[0].added = d.added;
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(one, catalog_));
    added_rels.insert(d.relation);
  }
  if (!added_rels.empty()) {
    std::set<std::string> insert_affected = added_rels;
    st->PropagateAffected(&insert_affected);
    for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
      const SccPlan& scc = st->plan.sccs[s];
      if (!st->SccConsumesAny(scc, insert_affected)) continue;
      if (st->counts_valid[s] != 0 &&
          !AtMostOneAffectedAtomPerRule(st->program, st->analysis, scc,
                                        insert_affected)) {
        st->counts_valid[s] = 0;
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
      SccExecutor executor(st->plan, scc, catalog_, st->base_indexes.get(),
                           options_, static_cast<uint32_t>(s), &hooks);
      Status run = executor.Run(&stats);
      if (!run.ok()) {
        inc_.reset();
        return run;
      }
      ++stats.num_sccs;
      // Materialize: kNone predicates append the retained tables' rows
      // past the replica watermarks in place; aggregate predicates (always
      // leaves here — an affected aggregate consumed downstream forces
      // fallback) rewrite fully, since merges update values in place.
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
          rel->Clear();
          for (uint32_t w = 0; w < options_.num_workers; ++w) {
            rel->AppendAll(st->replicas[s][w][canonical]->rows());
          }
          st->rel_watermarks[pred] = rel->size();
        }
      }
      st->RecordSccWatermarks(s);
    }
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
    const bool counting =
        st->counts_valid[s] != 0 && !scc.recursive &&
        AtMostOneAffectedAtomPerRule(st->program, st->analysis, scc,
                                     removed_names);
    if (counting) {
      DCD_RETURN_IF_ERROR(CountingDelete(s, old_copies, removed_rows, stats));
      continue;
    }
    DCD_ASSIGN_OR_RETURN(
        bool done, BackwardForwardDelete(s, old_copies, removed_rows, stats));
    if (!done) return false;
  }
  return true;
}

Status Engine::CountingDelete(size_t scc_idx,
                              std::map<std::string, Relation>* old_copies,
                              std::map<std::string, Relation>* removed_rows,
                              EvalStats* stats) {
  (void)stats;  // The counting path re-derives nothing.
  IncrementalState* st = inc_.get();
  const SccPlan& scc = st->plan.sccs[scc_idx];
  const uint32_t n = options_.num_workers;
  auto& tables = st->replicas[scc_idx];

  // Snapshot this SCC's predicates before correcting them: a downstream
  // SCC's forward pass reads the pre-batch values.
  for (const std::string& pred : scc.derived_preds) {
    if (old_copies->count(pred) == 0) {
      old_copies->emplace(pred, *catalog_->Find(pred));
    }
  }

  // The engine thread takes ownership of the retained partitions.
  for (uint32_t w = 0; w < n; ++w) {
    for (auto& table : tables[w]) table->RebindWriter();
  }

  // Lost derivations: drive every removed row (one entry per stored copy)
  // through each update rule of this SCC whose relation lost rows,
  // decrementing the derived row's support. The structural gate admitted at
  // most one removal-affected atom per rule — the driving one — so every
  // probe touches a relation the batch left unchanged, and the current
  // catalog state equals the pre-batch state for all of them.
  uint32_t max_regs = 1;
  for (const PhysicalRule& rule : scc.update_rules) {
    max_regs = std::max(max_regs, rule.num_regs);
  }
  std::vector<uint64_t> regs(max_regs, 0);
  PipelineContext pctx;
  pctx.catalog = catalog_;
  pctx.base_indexes = st->base_indexes.get();
  pctx.replicas = &tables[0];  // No recursive probes in a counting SCC.
  pctx.regs = regs.data();

  struct DecCtx {
    const PhysicalRule* rule = nullptr;
    std::vector<std::vector<std::unique_ptr<RecursiveTable>>>* tables =
        nullptr;
    std::vector<std::vector<std::vector<uint64_t>>>* dead = nullptr;
    uint32_t n = 0;
    int canonical = 0;
    uint32_t partition_col = 0;
  };
  const auto dec_thunk = [](void* c, const uint64_t* regs_in) {
    auto* d = static_cast<DecCtx*>(c);
    uint64_t wire[kMaxWireWords];
    BuildWireTuple(d->rule->head, regs_in, wire);
    const uint32_t w = PartitionOf(wire[d->partition_col], d->n);
    RecursiveTable* table = (*d->tables)[w][d->canonical].get();
    const uint64_t row_id =
        table->FindRowId(TupleRef{wire, table->stored_arity()});
    if (row_id == UINT64_MAX || table->SupportCount(row_id) == 0) {
      // Every lost derivation must resolve to a live, supported row;
      // anything else means the counts drifted.
      DCD_DCHECK(false);
      return;
    }
    if (table->DecrementSupport(row_id) == 0) {
      (*d->dead)[w][d->canonical].push_back(row_id);
    }
  };

  std::vector<std::vector<std::vector<uint64_t>>> dead(
      n, std::vector<std::vector<uint64_t>>(scc.replicas.size()));
  for (const PhysicalRule& rule : scc.update_rules) {
    auto rm_it = removed_rows->find(rule.driving_relation);
    if (rm_it == removed_rows->end() || rm_it->second.empty()) continue;
    PreparePipeline(rule, &pctx);
    DecCtx dctx;
    dctx.rule = &rule;
    dctx.tables = &tables;
    dctx.dead = &dead;
    dctx.n = n;
    dctx.canonical = scc.ReplicasOf(rule.head.predicate).front();
    dctx.partition_col = scc.replicas[dctx.canonical].partition_col;
    const EmitSink emit{dec_thunk, &dctx};
    const Relation& rm = rm_it->second;
    for (uint64_t r = 0; r < rm.size(); ++r) {
      RunPipelineForTuple(rule, pctx, rm.Row(r), emit);
    }
  }

  // Collect the dying rows (their tuples must be read before compaction),
  // compact every partition, and rewrite the catalog relation in place.
  for (const std::string& pred : scc.derived_preds) {
    const int canonical = scc.ReplicasOf(pred).front();
    Relation dead_rel(pred, st->plan.schemas.at(pred));
    bool any = false;
    for (uint32_t w = 0; w < n; ++w) {
      auto& ids = dead[w][canonical];
      if (ids.empty()) continue;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      RecursiveTable* table = tables[w][canonical].get();
      for (uint64_t id : ids) dead_rel.Append(table->rows().Row(id));
      table->CompactRemoveRows(ids);
      any = true;
    }
    if (!any) continue;
    Relation* rel = catalog_->Find(pred);
    rel->Clear();
    for (uint32_t w = 0; w < n; ++w) {
      rel->AppendAll(tables[w][canonical]->rows());
    }
    st->InvalidateIndexesOver(pred);
    st->rel_watermarks[pred] = rel->size();
    removed_rows->emplace(pred, std::move(dead_rel));
  }
  st->RecordSccWatermarks(scc_idx);
  return Status::OK();
}

Result<bool> Engine::BackwardForwardDelete(
    size_t scc_idx, std::map<std::string, Relation>* old_copies,
    std::map<std::string, Relation>* removed_rows, EvalStats* stats) {
  IncrementalState* st = inc_.get();
  const SccPlan& scc = st->plan.sccs[scc_idx];
  const uint32_t n = options_.num_workers;
  auto& tables = st->replicas[scc_idx];

  // Check and Saturate read the other SCCs' relations after the removals:
  // catch up the indexes the delta and check versions probe (the
  // check-only ones are built here, on the first delete).
  for (const auto* rules : {&scc.delta_rules, &scc.check_rules}) {
    for (const PhysicalRule& rule : *rules) {
      for (const Step& step : rule.steps) {
        if (step.base_index_id < 0) continue;
        DCD_RETURN_IF_ERROR(
            st->base_indexes->SyncAppended(step.base_index_id, *catalog_));
      }
    }
  }
  // The forward drive of the removed rows reads them before the batch.
  BaseIndexSet old_indexes(st->plan.base_indexes);
  for (const PhysicalRule& rule : scc.update_rules) {
    if (removed_rows->count(rule.driving_relation) == 0) continue;
    for (const Step& step : rule.steps) {
      if (step.base_index_id < 0) continue;
      auto old = old_copies->find(step.relation);
      const Relation* rel = old != old_copies->end()
                                ? &old->second
                                : catalog_->Find(step.relation);
      if (rel == nullptr) {
        return Status::Internal("relation '" + step.relation +
                                "' missing on the delete path");
      }
      old_indexes.EnsureBuiltOver(step.base_index_id, *rel);
    }
  }

  BackwardForwardInput in;
  in.scc = &scc;
  in.num_workers = n;
  in.tables = &tables;
  in.removed = removed_rows;
  in.catalog = catalog_;
  in.indexes = st->base_indexes.get();
  in.old_indexes = &old_indexes;
  in.old_relations = old_copies;
  const BackwardForwardResult bf = RunBackwardForward(in);
  stats->rederived_tuples += bf.checked;
  if (!bf.completed) return false;
  // Lost derivations of surviving rows were never decremented.
  st->counts_valid[scc_idx] = 0;

  // Commit: D leaves every replica partition and the catalog relation, and
  // goes downstream as this SCC's removed rows.
  for (uint32_t w = 0; w < n; ++w) {
    for (auto& table : tables[w]) table->RebindWriter();
  }
  for (size_t p = 0; p < scc.derived_preds.size(); ++p) {
    const std::string& pred = scc.derived_preds[p];
    const std::vector<int> reps = scc.ReplicasOf(pred);
    Relation gone(pred, st->plan.schemas.at(pred));
    for (uint32_t w = 0; w < n; ++w) {
      for (uint64_t row : bf.deleted[p][w]) {
        gone.Append(tables[w][reps[0]]->rows().Row(row));
      }
    }
    if (gone.empty()) continue;
    for (uint32_t w = 0; w < n; ++w) {
      tables[w][reps[0]]->CompactRemoveRows(bf.deleted[p][w]);
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
        tables[w][reps[k]]->CompactRemoveRows(ids[w]);
      }
    }
    Relation* rel = catalog_->Find(pred);
    if (st->ConsumedDownstream(scc, pred) && old_copies->count(pred) == 0) {
      old_copies->emplace(pred, *rel);
    }
    FlatTupleSet gone_set(&gone);
    gone_set.Reserve(gone.size());
    for (uint64_t r = 0; r < gone.size(); ++r) {
      gone_set.Insert(gone.Row(r).Hash(), r);
    }
    rel->EraseRowsIf([&gone_set](TupleRef row) {
      return gone_set.Find(row.Hash(), row) != FlatTupleSet::kNotFound;
    });
    st->InvalidateIndexesOver(pred);
    st->rel_watermarks[pred] = rel->size();
    removed_rows->emplace(pred, std::move(gone));
  }
  st->RecordSccWatermarks(scc_idx);
  return true;
}

}  // namespace dcdatalog
