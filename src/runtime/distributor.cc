#include "runtime/distributor.h"

#include "common/chaos.h"
#include "common/logging.h"
#include "common/value.h"
#include "runtime/batch_pipeline.h"

#if DCD_CHAOS_ENABLED
#include <cstdlib>
#include <string_view>
#endif

namespace dcdatalog {
namespace {

#if DCD_CHAOS_ENABLED
/// Fault-injection backdoor for validating the fuzz harness itself
/// (tools/dcd_fuzz --inject-bug): when the environment variable
/// DCD_INJECT_BUG=distributor_offbyone is set, every 8th routed tuple goes
/// to the wrong partition, breaking the ownership invariant the
/// differential oracle must catch. Compiled out of release builds with the
/// rest of the chaos layer.
bool InjectDistributorOffByOne() {
  static const bool on = [] {
    const char* v = std::getenv("DCD_INJECT_BUG");
    return v != nullptr && std::string_view(v) == "distributor_offbyone";
  }();
  return on;
}
#endif

bool Better(const AggSpec& spec, uint64_t candidate, uint64_t current) {
  if (spec.value_type == ColumnType::kDouble) {
    const double c = DoubleFromWord(candidate);
    const double v = DoubleFromWord(current);
    return spec.func == AggFunc::kMin ? c < v : c > v;
  }
  const int64_t c = IntFromWord(candidate);
  const int64_t v = IntFromWord(current);
  return spec.func == AggFunc::kMin ? c < v : c > v;
}

}  // namespace

Distributor::Distributor(const SccPlan* scc, uint32_t num_workers,
                         uint32_t self_worker, BlockSink sink,
                         SelfLoopSink self_sink)
    : scc_(scc),
      num_workers_(num_workers),
      num_replicas_(static_cast<uint32_t>(scc->replicas.size())),
      self_worker_(self_worker),
      sink_(sink),
      self_sink_(self_sink),
      per_pred_(scc->derived_preds.size()),
      staging_(static_cast<size_t>(num_workers) * scc->replicas.size()) {}

Distributor::PerPredicate& Distributor::StateFor(const HeadSpec& head) {
  DCD_DCHECK(head.pred_id >= 0 &&
             static_cast<size_t>(head.pred_id) < per_pred_.size());
  PerPredicate& pp = per_pred_[static_cast<size_t>(head.pred_id)];
  if (pp.head == nullptr) {
    pp.head = &head;
    pp.wire_arity = head.agg.wire_arity;
    pp.block_capacity = MsgBlock::CapacityFor(pp.wire_arity);
    pp.replica_ids = scc_->ReplicasOf(head.predicate);
    DCD_CHECK(!pp.replica_ids.empty());
  }
  return pp;
}

void Distributor::SendBlock(uint32_t dest, MsgBlock* block) {
  sink_.fn(sink_.ctx, dest, *block);
  ++blocks_sent_;
  block->count = 0;
}

void Distributor::Route(const PerPredicate& pp, const uint64_t* wire) {
  const uint32_t arity = pp.wire_arity;
  const uint32_t capacity = pp.block_capacity;
  for (int rid : pp.replica_ids) {
    const ReplicaSpec& replica = scc_->replicas[rid];
    uint32_t dest = replica.WorkerOf(wire, num_workers_);
#if DCD_CHAOS_ENABLED
    // Misroute every 8th routed tuple. Crucially this is inconsistent per
    // key — a consistent misroute would just be a different (still correct)
    // partition function, since base relations are probed through global
    // shared indexes. Inconsistency violates partition ownership: the same
    // logical tuple can land on two workers (duplicate output rows) and an
    // aggregate group can split across workers (two rows per group).
    if (InjectDistributorOffByOne() && (++inject_route_count_ & 7) == 0) {
      dest = (dest + 1) % num_workers_;
    }
#endif
    ++tuples_routed_;
    if (dest == self_worker_) {
      // Self-loop bypass: the tuple never leaves this worker, so it skips
      // the rings and the produced/consumed accounting entirely.
      ++self_loop_tuples_;
      self_sink_.fn(self_sink_.ctx, static_cast<uint32_t>(rid), wire, arity);
      continue;
    }
    MsgBlock& block = StagingFor(dest, static_cast<uint32_t>(rid));
    if (block.count == 0) {
      block.tag = static_cast<uint16_t>(rid);
      block.arity = static_cast<uint16_t>(arity);
    }
    std::memcpy(block.AppendSlot(), wire, arity * sizeof(uint64_t));
    ++block.count;
    if (block.count >= capacity) SendBlock(dest, &block);
  }
}

void Distributor::EmitResolved(PerPredicate& pp, const AggSpec& spec,
                               const uint64_t* wire) {
  ++tuples_emitted_;
  if (!Foldable(spec)) {
    Route(pp, wire);
    return;
  }
  const uint32_t arity = pp.wire_arity;
  bool inserted = false;
  const uint64_t* offset =
      pp.fold.FindOrInsert(GroupOf(spec, wire), pp.staged.size(), &inserted);
  if (inserted) {
    pp.staged.insert(pp.staged.end(), wire, wire + arity);
    return;
  }
  ++tuples_folded_;
  uint64_t* best = pp.staged.data() + *offset;
  const uint32_t value_col = spec.stored_arity - 1;
  if (Better(spec, wire[value_col], best[value_col])) {
    std::memcpy(best, wire, arity * sizeof(uint64_t));
  }
}

DCD_HOT_ROOT void Distributor::EmitBatch(const HeadSpec& head,
                                         const uint64_t* wires,
                                         uint32_t count, uint32_t wire_arity) {
  DCD_AFFINITY_GUARD(owner_affinity_);
  if (count == 0) return;
  PerPredicate& pp = StateFor(head);
  DCD_DCHECK(wire_arity == pp.wire_arity);
  // Folding probes one group slot per tuple: prefetch it a few tuples
  // ahead so the probe's DRAM miss overlaps the folds before it.
  const bool fold = Foldable(head.agg);
  for (uint32_t i = 0; i < count; ++i) {
    if (fold && i + kBatchPrefetchDistance < count) {
      pp.fold.Prefetch(GroupOf(
          head.agg,
          wires + static_cast<size_t>(i + kBatchPrefetchDistance) *
                      wire_arity));
    }
    EmitResolved(pp, head.agg, wires + static_cast<size_t>(i) * wire_arity);
  }
}

DCD_HOT_ROOT void Distributor::Flush() {
  DCD_AFFINITY_GUARD(owner_affinity_);
  for (PerPredicate& pp : per_pred_) {
    if (pp.staged.empty()) continue;
    for (size_t off = 0; off < pp.staged.size(); off += pp.wire_arity) {
      Route(pp, pp.staged.data() + off);
    }
    pp.staged.clear();
    pp.fold.Clear();
  }
  // Ship every partial block: nothing may linger in staging across the
  // iteration boundary, or termination detection and DWS's queue-size
  // signals would miss in-flight tuples.
  for (uint32_t dest = 0; dest < num_workers_; ++dest) {
    for (uint32_t r = 0; r < num_replicas_; ++r) {
      MsgBlock& block = StagingFor(dest, r);
      if (block.count > 0) SendBlock(dest, &block);
    }
  }
}

}  // namespace dcdatalog
