#ifndef DCDATALOG_RUNTIME_RECURSIVE_TABLE_H_
#define DCDATALOG_RUNTIME_RECURSIVE_TABLE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/affinity.h"
#include "common/options.h"
#include "planner/physical_plan.h"
#include "storage/btree.h"
#include "storage/dyn_index.h"
#include "storage/flat_map.h"
#include "storage/flat_set.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// One worker's partition of one replica of a recursive (or derived)
/// predicate: the stored rows R_i, the indexes that implement semi-naive
/// set-difference and aggregate merging (paper §6.2.1), the optional
/// existence cache (§6.2.2), the join index probed by non-linear rules,
/// and the delta δR_i feeding the next local iteration.
///
/// Merge semantics by aggregate function (wire → stored):
///   none:   insert if the full tuple is new (existence index).
///   min/max: group key (≤ 2 columns) → keep best value, update in place.
///   count:  (group ≤ 1 column, contributor) → count distinct contributors.
///   sum:    (group ≤ 1 column, contributor, value) → each contributor's
///           latest value replaces its previous one (the PageRank pattern);
///           changes below EngineOptions::sum_epsilon do not re-enter δ.
///
/// Two interchangeable index backends implement those semantics
/// (EngineOptions::merge_index_backend): the default `flat` backend uses
/// open-addressed structures (FlatTupleSet for kNone existence,
/// FlatGroupMap for group → row and contributor → value) with a
/// prefetch-pipelined kNone MergeBatch; the `btree` backend keeps the
/// original B+-tree indexes as the Table 4 ablation baseline. Both produce
/// identical stored rows and deltas (cross-checked by the differential
/// fuzzer's backend axis).
///
/// Every state change appends the new stored row to the delta. Not
/// internally synchronized — each worker owns its tables.
class RecursiveTable {
 public:
  RecursiveTable(const std::string& name, Schema stored_schema, AggSpec spec,
                 uint32_t partition_col, bool needs_join_index,
                 const EngineOptions& options);

  /// Merges a batch of wire tuples. With enable_aggregate_index this is a
  /// per-tuple indexed merge; without it, aggregate groups are merged by a
  /// single linear scan over the stored rows (the paper's unoptimized
  /// baseline for the Table 4 ablation).
  void MergeBatch(const std::vector<TupleBuf>& wires);

  /// Merges one wire tuple through the indexed path. Returns true if the
  /// table changed (and the delta grew).
  bool MergeWire(const uint64_t* wire);

  /// EDB-cardinality presizing hint: reserves row storage, the join index,
  /// and the active flat merge structures for ~`expected_rows` entries so
  /// the first iterations of a TC-style run don't pay growth rehashes.
  /// A hint, not a cap — structures still grow past it on demand.
  void ReserveHint(uint64_t expected_rows);

  // --- Delta (δR_i) ---
  const std::vector<TupleBuf>& delta() const { return delta_; }
  uint64_t delta_size() const { return delta_.size(); }
  void ClearDelta() {
    DCD_AFFINITY_GUARD_WRITE(writer_affinity_);
    delta_.clear();
  }

  /// Moves the current delta out and leaves an empty one. The worker
  /// iterates the snapshot while backpressure-driven gathers may grow the
  /// fresh delta concurrently (same thread, interleaved calls).
  std::vector<TupleBuf> TakeDelta() {
    DCD_AFFINITY_GUARD_WRITE(writer_affinity_);
    std::vector<TupleBuf> out = std::move(delta_);
    delta_.clear();
    return out;
  }

  // --- Stored rows ---
  const Relation& rows() const { return rows_; }
  uint32_t stored_arity() const { return spec_.stored_arity; }
  uint32_t wire_arity() const { return spec_.wire_arity; }
  const AggSpec& agg_spec() const { return spec_; }
  uint32_t partition_col() const { return partition_col_; }

  /// Probes the join index: fn(TupleRef stored_row) for each row whose
  /// partition-column value equals `key`. fn may return void (visit all) or
  /// bool — false stops early. Requires needs_join_index.
  template <typename Fn>
  void ForEachJoinMatch(uint64_t key, Fn&& fn) const {
    join_index_.ForEachMatch(key, [&](uint64_t row_id) {
      if constexpr (std::is_void_v<std::invoke_result_t<Fn&, TupleRef>>) {
        fn(rows_.Row(row_id));
        return true;
      } else {
        return fn(rows_.Row(row_id));
      }
    });
  }

  /// Prefetches the join index's bucket for `key` (batch-pipeline probe
  /// pipelining).
  void PrefetchJoin(uint64_t key) const { join_index_.Prefetch(key); }

  // --- Incremental maintenance (retained tables between update batches) ---

  /// Enables per-row support counting (kNone + flat backend only): every
  /// arrival of a tuple — fresh insert, duplicate find, or existence-cache
  /// hit — bumps the row's derivation counter riding beside the flat
  /// existence set's slots. In a non-recursive stratum arrivals equal
  /// derivations exactly, so a deletion can decrement to zero instead of
  /// searching for another proof (Backward/Forward). Must be called before
  /// the first merge.
  void EnableSupportCounts();
  bool support_counts_enabled() const { return maintain_counts_; }
  uint64_t SupportCount(uint64_t row_id) const {
    return exist_set_.CountOf(row_id);
  }

  /// Decrements a row's support count, returning the new count (0 = the
  /// row lost its last derivation and must be compacted away).
  uint64_t DecrementSupport(uint64_t row_id) {
    DCD_AFFINITY_GUARD_WRITE(writer_affinity_);
    return exist_set_.DecrementCount(row_id);
  }

  /// Row id of the stored tuple equal to `tuple`, or UINT64_MAX. Deletion
  /// paths use it to resolve a lost derivation to its row. kNone only.
  uint64_t FindRowId(TupleRef tuple) const {
    return FindRowId(tuple, tuple.Hash());
  }
  /// The same, with `hash` = tuple.Hash() computed by the caller.
  uint64_t FindRowId(TupleRef tuple, uint64_t hash) const;

  /// Two-stage prefetch for a FindRowId of a tuple hashing to `hash` (flat
  /// backend; no-ops on btree): the existence slot first, then — once that
  /// is cached — the row it names. Lookups that resolve a batch of tuples
  /// issue each stage for the whole batch so the misses overlap.
  void PrefetchFindSlot(uint64_t hash) const {
    if (use_flat_) exist_set_.Prefetch(hash);
  }
  void PrefetchFindRow(uint64_t hash) const {
    if (use_flat_) exist_set_.PrefetchRow(hash);
  }

  /// Removes the given rows (sorted, deduplicated row ids) and rebuilds the
  /// merge/join indexes over the survivors; clears the existence cache and
  /// the delta. Surviving rows keep their ids' relative order (and their
  /// support counts, when enabled). kNone only — aggregate deletion falls
  /// back to full recomputation at the engine level.
  void CompactRemoveRows(const std::vector<uint64_t>& dead_row_ids);

  /// Hands the partition to a new owning thread: incremental sessions
  /// retain tables across ApplyUpdates batches but spawn fresh workers for
  /// each one (debug-only; see ThreadAffinity::Rebind).
  void RebindWriter() { DCD_AFFINITY_REBIND(writer_affinity_); }

  /// Zeroes the per-run statistics so a retained table reports per-batch
  /// numbers instead of accumulating across its whole lifetime.
  void ResetStats();

  // --- Statistics ---
  uint64_t merges() const { return merges_; }
  uint64_t accepts() const { return accepts_; }
  uint64_t cache_hits() const { return cache_hits_; }

  /// Key/tuple comparisons spent probing the merge indexes (collision
  /// resolution work across both backends) — the engine surfaces the sum
  /// as EvalStats::merge_probe_cmps.
  uint64_t merge_probe_cmps() const {
    const uint64_t total = probe_cmps_ + exist_set_.probe_cmps() +
                           flat_group_.probe_cmps() +
                           flat_contrib_.probe_cmps();
    // A compaction rebuild resets the flat structures' counters, so the
    // baseline can exceed the live sum; saturate rather than wrap.
    return total >= probe_cmps_base_ ? total - probe_cmps_base_ : total;
  }

 private:
  U128 GroupKey(const uint64_t* wire) const {
    U128 k;
    k.hi = spec_.group_arity > 0 ? wire[0] : 0;
    k.lo = spec_.group_arity > 1 ? wire[1] : 0;
    return k;
  }

  bool BetterValue(uint64_t candidate, uint64_t current) const;

  uint64_t AppendRow(const uint64_t* stored);

  /// Marks a row as changed. Outside batch mode it enters the delta
  /// immediately; inside MergeBatch each changed row enters once, after the
  /// whole batch merged — otherwise m updates to one aggregate group would
  /// spawn m delta rows and the join fan-out would grow exponentially with
  /// the iteration count (catastrophic for sum-in-recursion).
  void PushDelta(uint64_t row_id);

  bool MergeNone(const uint64_t* wire, uint64_t hash);
  bool MergeMinMax(const uint64_t* wire);
  bool MergeCount(const uint64_t* wire);
  bool MergeSum(const uint64_t* wire);

  /// Backend-dispatched group-index primitives shared by the aggregate
  /// merge paths (and the scan-ablation path, which must keep whichever
  /// index is active coherent for later indexed lookups).
  uint64_t* FindGroup(const U128& group);
  void InsertGroup(const U128& group, uint64_t row_id);

  /// Linear-scan merge for min/max batches (ablation path).
  void MergeMinMaxBatchByScan(const std::vector<TupleBuf>& wires);

  // Existence cache (§6.2.2): direct-mapped, one slot = candidate row id+1.
  bool CacheCheckDuplicate(TupleRef tuple, uint64_t hash) const;
  void CacheFill(uint64_t hash, uint64_t row_id);

  const AggSpec spec_;
  const uint32_t partition_col_;
  const bool use_join_index_;
  const bool use_agg_index_;
  const bool use_cache_;
  const bool use_flat_;
  const double sum_epsilon_;

  Relation rows_;
  std::vector<TupleBuf> delta_;

  // --- btree backend (Table 4 ablation baseline) ---
  // For kNone: key = (tuple hash, row id) — exact after row comparison.
  // For aggregates: key = group key, value = row id.
  BPlusTree<U128, uint64_t> group_index_;
  // For count/sum: key = (group word, contributor), value = last value word
  // (sum) or unused (count).
  BPlusTree<U128, uint64_t> contrib_index_;

  // --- flat backend (default hot path) ---
  FlatTupleSet exist_set_;    // kNone existence, keyed (hash, row id).
  FlatGroupMap flat_group_;   // aggregate group key → row id.
  FlatGroupMap flat_contrib_; // count/sum (group, contributor) → last value.

  DynIndex join_index_;

  // Per-batch hash scratch for the prefetch-pipelined kNone merge; member
  // so steady-state batches never allocate.
  std::vector<uint64_t> batch_hashes_;

  std::vector<uint64_t> cache_slots_;  // row id + 1; 0 = empty.
  uint64_t cache_mask_ = 0;

  // Batch-mode delta deduplication (see PushDelta).
  bool batch_mode_ = false;
  std::vector<uint64_t> batch_changed_rows_;

  // Debug-only single-writer stamp: the owning worker's thread claims the
  // partition on its first mutation; any foreign write dies (empty in
  // release). Reads (rows(), stats) stay unguarded — MaterializeResults
  // legitimately reads all partitions after the workers joined.
  DCD_AFFINITY_OWNER(writer_affinity_, "recursive-table-writer");

  uint64_t merges_ = 0;
  uint64_t accepts_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t probe_cmps_ = 0;  // btree-path comparisons; flat counts live
                             // inside the flat structures.

  // Incremental sessions: support counting (kNone + flat) and the
  // probe-comparison baseline ResetStats subtracts so merge_probe_cmps()
  // stays per-batch even though the flat structures' counters accumulate.
  bool maintain_counts_ = false;
  uint64_t probe_cmps_base_ = 0;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_RECURSIVE_TABLE_H_
