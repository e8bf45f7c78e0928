#include "core/scc_executor.h"

#include <algorithm>
#include <thread>

#include "common/chaos.h"
#include "common/hot_path.h"
#include "common/logging.h"
#include "concurrent/worker_pool.h"
#include "core/dws_controller.h"
#include "core/strategy.h"

namespace dcdatalog {

void RunGang(const EngineOptions& options, uint32_t n, EvalStats* stats,
             const std::function<void(uint32_t)>& fn) {
  if (options.worker_pool != nullptr) {
    if (n > options.worker_pool->capacity()) ++stats->pool_fallback_gangs;
    options.worker_pool->Run(n, fn);
  } else {
    RunWorkers(n, fn);
  }
}

SccExecutor::SccExecutor(const PhysicalPlan& plan, const SccPlan& scc,
                         Catalog* catalog, BaseIndexSet* base_indexes,
                         const EngineOptions& options, uint32_t scc_ordinal,
                         const IncrementalHooks* hooks)
    : hooks_(hooks),
      plan_(plan),
      scc_(scc),
      catalog_(catalog),
      base_indexes_(base_indexes),
      options_(options),
      n_(options.num_workers),
      scc_ordinal_(scc_ordinal),
      detector_(options.num_workers),
      start_barrier_(options.num_workers),
      published_clocks_(options.num_workers) {
  if (hooks != nullptr) start_clock_ = *hooks->clock;
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
  // column at StartWorker, so the n² ring allocations (the value-semantics
  // MsgBlock slots, the bulk of the grid's memory) run in parallel across
  // the gang instead of serially on this thread; the startup barrier
  // publishes them before any producer can push.
  queues_.resize(static_cast<size_t>(n_) * n_);
  contexts_.resize(n_);
}

Status SccExecutor::Run(EvalStats* stats) {
  // The one place a strategy is picked; each instantiates the same loop.
  switch (options_.coordination) {
    case CoordinationMode::kGlobal:
      RunWith<GlobalStrategy>(stats);
      break;
    case CoordinationMode::kSsp:
      RunWith<SspStrategy>(stats);
      break;
    case CoordinationMode::kDws:
      RunWith<DwsStrategy>(stats);
      break;
  }
  // Relaxed: the gang joined every worker, which already orders their
  // writes before this read.
  if (aborted_.load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted(
        "evaluation exceeded max_global_iterations (" +
        std::to_string(options_.max_global_iterations) + ")");
  }
  // Update mode appends only the new rows; the engine does that from the
  // retained tables' watermarks, so the full rewrite here is skipped.
  if (!UpdateMode()) MaterializeResults();
  CollectStats(stats);
  if (hooks_ == nullptr) return Status::OK();
  for (const auto& ctx : contexts_) {
    *hooks_->clock = std::max(*hooks_->clock, ctx->clock);
    (*hooks_->retained)[ctx->wid] = std::move(ctx->replicas);
  }
  return Status::OK();
}

template <typename Strategy>
void SccExecutor::RunWith(EvalStats* stats) {
  Strategy strategy(n_, options_);
  RunGang(options_, n_, stats, [this, &strategy](uint32_t wid) {
    contexts_[wid] = std::make_unique<WorkerContext>(this, wid);
    WorkerContext* ctx = contexts_[wid].get();
    StartWorker(wid, ctx);
    strategy.Begin(this, ctx);
    Fixpoint(ctx, &strategy);
    ctx->Instant(TraceEventKind::kSccEnd, 0);
    // Nothing after the join reads these: the scratch is large, and the
    // model dies with the strategy.
    ctx->gather_scratch = {};
    ctx->block_scratch = {};
    ctx->delta_scratch = {};
    ctx->arrivals = nullptr;
  });
}

/// Phase 1, the fixpoint loop every strategy shares. A non-recursive SCC
/// has no delta rules; the loop then simply drains the buffers and
/// detects termination.
template <typename Strategy>
DCD_HOT_ROOT void SccExecutor::Fixpoint(WorkerContext* ctx,
                                        Strategy* strategy) {
  while (true) {
    DCD_CHAOS_POINT(kStrategyLoop);
    GatherAll(ctx);
    const Turn turn = strategy->Next(this, ctx);
    if (turn == Turn::kStop) return;
    if (turn == Turn::kIterate) {
      strategy->AfterIteration(this, ctx, LocalIteration(ctx));
    }
  }
}

void SccExecutor::StartWorker(uint32_t wid, WorkerContext* ctx) {
  // Worker w builds its own inbound column (queues_[j*n + w] for all j),
  // so the gang allocates the n² rings — each owns a 2 KiB block array —
  // in parallel. The barrier publishes the unique_ptr stores (release on
  // arrival, acquire on departure) before any producer can route a tuple.
  for (uint32_t j = 0; j < n_; ++j) {
    queues_[static_cast<size_t>(j) * n_ + wid] =
        std::make_unique<BlockQueue>(per_queue_blocks_);
  }
  start_barrier_.Wait();
  ctx->Instant(TraceEventKind::kSccBegin, 0);

  // Build this worker's replica partitions (first-touch local), or adopt
  // the incremental session's retained tables and continue from the
  // previous fixpoint.
  auto& replicas = ctx->replicas;
  if (UpdateMode()) {
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
    // EDB cardinality hints: presize each replica for roughly the rows its
    // base rules will feed it (driving-relation sizes, hash-partitioned
    // across n workers) so the first iterations of a TC-style run don't
    // pay growth rehashes. Setup path — the locked Catalog is fine here.
    // Adopted tables are already sized for the previous fixpoint.
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
  ctx->gather_scratch.resize(replicas.size());
  ctx->delta_scratch.resize(replicas.size());
  ctx->pipeline = {catalog_, base_indexes_, &ctx->replicas, {}};

  // Sink thunks take the WorkerContext through the {fn, ctx} pair — ctx
  // outlives the worker's SCC run, and carries
  // the exec pointer for the backpressure path. Plain function pointers,
  // not std::function: the send path is per-block and the self-loop path
  // is per-tuple, and both thunks are registered deepcheck hot roots (the
  // analyzer verifies them from their own entry, since it cannot see
  // through the pointer).
  ctx->distributor = std::make_unique<Distributor>(
      &scc_, n_, wid,
      Distributor::BlockSink{&SccExecutor::DistSinkThunk, ctx},
      Distributor::SelfLoopSink{&SccExecutor::DistSelfSinkThunk, ctx});

  // Phase 0: base rules (or, in update mode, the update rules over rows
  // past the relation watermarks). Results flow through Distribute/Gather
  // exactly like recursive derivations.
  if (UpdateMode()) {
    RunUpdateRules(ctx);
  } else {
    RunBaseRules(ctx);
  }
  ctx->distributor->Flush();
}

/// Non-allocating emit thunk (BatchEmitSink): a plain function pointer
/// plus the worker's context, not a capturing std::function.
DCD_HOT_ROOT void SccExecutor::EmitBatchThunk(void* c, const HeadSpec& head,
                                              const uint64_t* wires,
                                              uint32_t count,
                                              uint32_t wire_arity) {
  auto* ctx = static_cast<WorkerContext*>(c);
  ctx->distributor->EmitBatch(head, wires, count, wire_arity);
}

/// Emit thunk of a local rule (PhysicalRule::local_replica): every tuple
/// of the batch belongs to this worker's partition, so the batch skips
/// Distribute and merges at once, while it is still in cache, through the
/// one merge path and its stamp rule.
DCD_HOT_ROOT void SccExecutor::LocalEmitThunk(void* c,
                                              const HeadSpec& /*head*/,
                                              const uint64_t* wires,
                                              uint32_t count,
                                              uint32_t wire_arity) {
  auto* ctx = static_cast<WorkerContext*>(c);
  DCD_DCHECK(ctx->local_replica >= 0);
  std::vector<uint64_t>& batch = ctx->gather_scratch[ctx->local_replica];
  batch.insert(batch.end(), wires,
               wires + static_cast<size_t>(count) * wire_arity);
  ctx->local_tuples += count;
  ctx->exec->GatherAll(ctx);
}

/// Distributor sink thunks (BlockSink / SelfLoopSink): ctx is the
/// emitting worker's WorkerContext.
DCD_HOT_ROOT void SccExecutor::DistSinkThunk(void* c, uint32_t dest,
                                             const MsgBlock& block) {
  auto* ctx = static_cast<WorkerContext*>(c);
  ctx->exec->PushWithBackpressure(ctx, dest, block);
}

/// Self-loop bypass: the tuple's partition is the emitting worker, so it
/// goes straight into the local gather scratch — the next GatherAll
/// merges it with zero ring traffic and zero detector accounting.
DCD_HOT_ROOT void SccExecutor::DistSelfSinkThunk(void* c, uint32_t replica,
                                                 const uint64_t* wire,
                                                 uint32_t arity) {
  auto* ctx = static_cast<WorkerContext*>(c);
  std::vector<uint64_t>& batch = ctx->gather_scratch[replica];
  batch.insert(batch.end(), wire, wire + arity);
}

void SccExecutor::RunBaseRules(WorkerContext* ctx) {
  PipelineContext* pctx = &ctx->pipeline;
  const BatchEmitSink emit{&EmitBatchThunk, ctx};
  for (const PhysicalRule& rule : scc_.base_rules) {
    PreparePipeline(rule, pctx);
    if (rule.driving_is_unit) {
      if (ctx->wid == 0) ctx->batch_runner.RunUnit(rule, pctx, emit);
      continue;
    }
    const Relation* rel = catalog_->Find(rule.driving_relation);
    DCD_CHECK(rel != nullptr);
    const uint64_t size = rel->size();
    const uint64_t begin = size * ctx->wid / n_;
    const uint64_t end = size * (ctx->wid + 1) / n_;
    ctx->batch_runner.Begin(rule, pctx, emit);
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
DCD_HOT_ROOT void SccExecutor::RunUpdateRules(WorkerContext* ctx) {
  PipelineContext* pctx = &ctx->pipeline;
  const BatchEmitSink emit{&EmitBatchThunk, ctx};
  for (const PhysicalRule& rule : scc_.update_rules) {
    DCD_COLD_CALL("catalog lookup once per update rule per batch, never per driven row");
    const Relation* rel = catalog_->Find(rule.driving_relation);
    if (rel == nullptr) continue;
    const uint64_t size = rel->size();
    auto it = hooks_->watermarks->find(rule.driving_relation);
    const uint64_t wm = it != hooks_->watermarks->end() ? it->second : size;
    if (wm >= size) continue;
    PreparePipeline(rule, pctx);
    ctx->batch_runner.Begin(rule, pctx, emit);
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
DCD_HOT_ROOT uint64_t SccExecutor::GatherAll(WorkerContext* ctx) {
  DCD_CHAOS_POINT(kGather);
  uint64_t total = 0;
  uint32_t stamp = ctx->clock;
  DwsController* const arrivals = ctx->arrivals;
  const int64_t now = arrivals != nullptr ? MonotonicNanos() : 0;
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
      if (arrivals != nullptr) arrivals->OnDrain(j, drained, now);
    }
    total += drained;
  }
  ++stamp;
  for (size_t r = 0; r < ctx->gather_scratch.size(); ++r) {
    std::vector<uint64_t>& batch = ctx->gather_scratch[r];
    if (batch.empty()) continue;
    RecursiveTable& table = *ctx->replicas[r];
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
    ctx->Instant(TraceEventKind::kDrain, total);
  }
  return total;
}

DCD_HOT_ROOT void SccExecutor::PushWithBackpressure(WorkerContext* ctx,
                                                    uint32_t dest,
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
  ctx->Instant(TraceEventKind::kBlockPush, block.count);
}

uint64_t SccExecutor::DeltaTotal(const WorkerContext& ctx) const {
  uint64_t total = 0;
  for (const auto& table : ctx.replicas) total += table->delta_size();
  return total;
}

/// One local semi-naive iteration: snapshot the deltas' row ids, run
/// every delta rule over the rows its driving snapshot names, flush the
/// distributor.
DCD_HOT_ROOT SccExecutor::IterationSample SccExecutor::LocalIteration(
    WorkerContext* ctx) {
  const int64_t start = MonotonicNanos();
  uint64_t processed = 0;
  for (size_t r = 0; r < ctx->replicas.size(); ++r) {
    ctx->replicas[r]->TakeDelta(&ctx->delta_scratch[r]);
    processed += ctx->delta_scratch[r].size();
  }

  PipelineContext* pctx = &ctx->pipeline;
  const BatchEmitSink distribute{&EmitBatchThunk, ctx};
  const BatchEmitSink merge_local{&LocalEmitThunk, ctx};
  for (const PhysicalRule& rule : scc_.delta_rules) {
    const size_t dr = rule.driving_replica;
    const std::vector<uint32_t>& snapshot = ctx->delta_scratch[dr];
    if (snapshot.empty()) continue;
    PreparePipeline(rule, pctx);
    const Relation& rows = ctx->replicas[dr]->rows();
    ctx->local_replica = rule.local_replica;
    ctx->batch_runner.Begin(rule, pctx,
                            rule.local_replica >= 0 ? merge_local : distribute);
    // Row() on every push: a local rule's merge or a backpressure gather
    // inside a push may merge into this table and move its rows.
    for (const uint32_t id : snapshot) ctx->batch_runner.Push(rows.Row(id));
    ctx->batch_runner.Finish();
  }
  ctx->distributor->Flush();
  const int64_t end = MonotonicNanos();
  ctx->metrics.iteration_ns.Add(static_cast<uint64_t>(end - start));
  ctx->Span(TraceEventKind::kIteration, start, end, processed);
  ++ctx->local_iter;
  if (options_.max_global_iterations != 0 &&
      ctx->local_iter > options_.max_global_iterations) {
    aborted_.store(true, std::memory_order_release);
  }
  return {end - start, processed};
}

/// Parks the worker at its local fixpoint until new input arrives or the
/// global fixpoint is detected. Returns false when evaluation is over.
DCD_HOT_ROOT bool SccExecutor::InactiveWait(WorkerContext* ctx) {
  IdleScope idle(ctx, TraceEventKind::kPark);
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

void SccExecutor::MaterializeResults() {
  for (const std::string& pred : scc_.derived_preds) {
    const std::vector<int> replica_ids = scc_.ReplicasOf(pred);
    DCD_CHECK(!replica_ids.empty());
    const int canonical = replica_ids.front();
    Relation merged(pred, plan_.schemas.at(pred));
    uint64_t total = 0;
    for (uint32_t w = 0; w < n_; ++w) {
      total += contexts_[w]->replicas[canonical]->rows().size();
    }
    merged.Reserve(total);
    for (uint32_t w = 0; w < n_; ++w) {
      merged.AppendAll(contexts_[w]->replicas[canonical]->rows());
    }
    catalog_->Put(std::move(merged));
  }
}

void SccExecutor::CollectStats(EvalStats* stats) {
  // Called once per SCC, after the join; histograms merge across SCCs into
  // the same per-worker slot.
  if (stats->worker_metrics.size() < n_) stats->worker_metrics.resize(n_);
  for (const auto& ctx : contexts_) {
    const Distributor& dist = *ctx->distributor;
    stats->total_local_iterations += ctx->local_iter;
    stats->max_local_iterations =
        std::max(stats->max_local_iterations, ctx->local_iter);
    stats->tuples_routed += dist.tuples_routed() + ctx->local_tuples;
    stats->tuples_folded += dist.tuples_folded();
    stats->tuples_emitted += dist.tuples_emitted() + ctx->local_tuples;
    stats->blocks_sent += dist.blocks_sent();
    stats->self_loop_tuples += dist.self_loop_tuples() + ctx->local_tuples;
    for (const auto& table : ctx->replicas) {
      stats->merges += table->merges();
      stats->accepts += table->accepts();
      stats->merge_probe_cmps += table->merge_probe_cmps();
    }
    stats->pipeline_batches += ctx->batch_runner.batches();
    stats->pipeline_rows_selected += ctx->batch_runner.rows_selected();
    stats->idle_wait_seconds += static_cast<double>(ctx->idle_ns) * 1e-9;
    stats->trace_dropped += ctx->ring.dropped();
    ctx->ring.Snapshot(&stats->trace);
    WorkerMetrics& metrics = stats->worker_metrics[ctx->wid];
    metrics.iteration_ns.Merge(ctx->metrics.iteration_ns);
    metrics.drain_batch.Merge(ctx->metrics.drain_batch);
  }
}

}  // namespace dcdatalog
