#ifndef DCDATALOG_RUNTIME_DISTRIBUTOR_H_
#define DCDATALOG_RUNTIME_DISTRIBUTOR_H_

#include <cstring>
#include <vector>

#include "common/affinity.h"
#include "common/chaos.h"
#include "common/hot_path.h"
#include "planner/physical_plan.h"
#include "runtime/message.h"
#include "storage/flat_map.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// The Distribute operator (paper §5.2.3): splits the wire tuples a local
/// iteration derives into partitions via the hash function H and hands them
/// to the sink (the worker's queue-push routine). For min/max heads it
/// first performs partial aggregation (Figure 7) — only the per-group best
/// of this iteration crosses worker boundaries.
///
/// Communication is block-batched: tuples bound for a remote worker pack
/// densely (wire_arity words each) into per-(destination, replica) staging
/// MsgBlocks that ship when full and at every Flush(). Tuples whose
/// partition hash routes back to the emitting worker take the self-loop
/// bypass instead — handed to `self_sink` with no ring traffic and no
/// termination-detector accounting.
///
/// One instance per worker; not synchronized.
class Distributor {
 public:
  /// fn(ctx, dest_worker, block) enqueues one full or partial block; it
  /// must handle backpressure itself. A plain {function pointer, context}
  /// pair, same shape as EmitSink/BatchEmitSink in the pipeline: a
  /// std::function here would put a type-erased indirect call (and a
  /// potential capture allocation) on the per-block send path, which
  /// dcd_deepcheck rejects. Every function installed as a sink must itself
  /// be a registered hot root — the analyzer cannot see through the
  /// pointer, so the sink body is verified from its own entry.
  struct BlockSink {
    using Fn = void (*)(void* ctx, uint32_t dest, const MsgBlock& block);
    Fn fn = nullptr;
    void* ctx = nullptr;
  };

  /// fn(ctx, replica_id, wire, arity) accepts one tuple whose partition is
  /// the emitting worker itself (typically: append to the local gather
  /// scratch so the next merge picks it up). Same hot-path contract as
  /// BlockSink, but per-tuple, so the discipline matters even more.
  struct SelfLoopSink {
    using Fn = void (*)(void* ctx, uint32_t replica, const uint64_t* wire,
                        uint32_t arity);
    Fn fn = nullptr;
    void* ctx = nullptr;
  };

  Distributor(const SccPlan* scc, uint32_t num_workers, uint32_t self_worker,
              BlockSink sink, SelfLoopSink self_sink);

  /// Accepts `count` wire tuples derived for `head`, packed densely at
  /// `wire_arity` words each. Per-predicate state is resolved once for the
  /// whole batch. Min/max tuples are folded into the partial-aggregation
  /// buffer; everything else routes at once.
  void EmitBatch(const HeadSpec& head, const uint64_t* wires, uint32_t count,
                 uint32_t wire_arity);

  /// Routes all buffered partial aggregates and ships every non-empty
  /// staging block. Call once per local iteration, after the last rule ran
  /// — coordination (and termination detection) relies on nothing lingering
  /// in staging between iterations.
  void Flush();

  uint64_t tuples_routed() const { return tuples_routed_; }
  uint64_t tuples_folded() const { return tuples_folded_; }
  uint64_t tuples_emitted() const { return tuples_emitted_; }
  uint64_t blocks_sent() const { return blocks_sent_; }
  uint64_t self_loop_tuples() const { return self_loop_tuples_; }

 private:
  struct PerPredicate {
    const HeadSpec* head = nullptr;  // Any rule's head for this predicate.
    uint32_t wire_arity = 0;
    uint32_t block_capacity = 0;  // CapacityFor(wire_arity), hoisted out of
                                  // Route — the division is per-predicate
                                  // state, not per-tuple work.
    std::vector<int> replica_ids;
    /// Partial aggregation (min/max heads): this iteration's best wire per
    /// group, packed back to back (wire_arity words each) in first-seen
    /// order, and the fold map from group key to the word offset of that
    /// group's wire. Flush routes `staged` and clears both; both keep their
    /// capacity across iterations.
    std::vector<uint64_t> staged;
    FlatGroupMap fold;
  };

  void Route(const PerPredicate& pp, const uint64_t* wire);

  /// Accepts one wire tuple with per-predicate state already resolved.
  void EmitResolved(PerPredicate& pp, const AggSpec& spec,
                    const uint64_t* wire);

  static bool Foldable(const AggSpec& spec) {
    return spec.func == AggFunc::kMin || spec.func == AggFunc::kMax;
  }

  static U128 GroupOf(const AggSpec& spec, const uint64_t* wire) {
    U128 group;
    group.hi = spec.group_arity > 0 ? wire[0] : 0;
    group.lo = spec.group_arity > 1 ? wire[1] : 0;
    return group;
  }

  MsgBlock& StagingFor(uint32_t dest, uint32_t replica) {
    return staging_[static_cast<size_t>(dest) * num_replicas_ + replica];
  }

  void SendBlock(uint32_t dest, MsgBlock* block);

  PerPredicate& StateFor(const HeadSpec& head);

  const SccPlan* scc_;
  const uint32_t num_workers_;
  const uint32_t num_replicas_;
  const uint32_t self_worker_;
  BlockSink sink_;
  SelfLoopSink self_sink_;
  /// Indexed by HeadSpec::pred_id (dense, assigned at plan time).
  std::vector<PerPredicate> per_pred_;
  /// Per-(destination, replica) staging blocks, dest-major.
  std::vector<MsgBlock> staging_;
  uint64_t tuples_routed_ = 0;
  uint64_t tuples_folded_ = 0;
  uint64_t tuples_emitted_ = 0;
  uint64_t blocks_sent_ = 0;
  uint64_t self_loop_tuples_ = 0;
  // Debug-only owner stamp covering the staging blocks and partial-agg
  // buffers: only the emitting worker may EmitBatch/Flush (empty in
  // release).
  DCD_AFFINITY_OWNER(owner_affinity_, "distributor-staging");
#if DCD_CHAOS_ENABLED
  /// Per-worker routing counter for the DCD_INJECT_BUG=distributor_offbyone
  /// fault (see distributor.cc). A member, not a static: distributors are
  /// per-worker, and the fault must not introduce cross-thread traffic of
  /// its own.
  uint64_t inject_route_count_ = 0;
#endif
};

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_DISTRIBUTOR_H_
