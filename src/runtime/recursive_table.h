#ifndef DCDATALOG_RUNTIME_RECURSIVE_TABLE_H_
#define DCDATALOG_RUNTIME_RECURSIVE_TABLE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/affinity.h"
#include "common/options.h"
#include "common/status.h"
#include "planner/physical_plan.h"
#include "storage/dyn_index.h"
#include "storage/flat_map.h"
#include "storage/flat_set.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// One worker's partition of one replica of a recursive (or derived)
/// predicate: the stored rows R_i, the indexes that implement semi-naive
/// set-difference and aggregate merging (paper §6.2.1), the join index
/// probed by non-linear rules, and the delta δR_i feeding the next local
/// iteration.
///
/// Merge semantics by aggregate function (wire → stored):
///   none:   insert if the full tuple is new (existence index), and stamp
///           the row (SetMergeStamp).
///   min/max: group key (≤ 2 columns) → keep best value, update in place,
///           and stamp the row.
///   count:  (group ≤ 1 column, contributor) → count distinct contributors.
///   sum:    (group ≤ 1 column, contributor, value) → each contributor's
///           latest value replaces its previous one (the PageRank pattern);
///           changes below EngineOptions::sum_epsilon do not re-enter δ.
///
/// Open-addressed flat structures implement those semantics: FlatTupleSet
/// for kNone existence and FlatGroupMap for group → row and contributor →
/// value, with a prefetch-pipelined kNone MergeBatch. Each aggregate
/// function has one merge path, an indexed lookup per wire. The paper's
/// §6.2.2 existence cache in front of these lookups is not implemented: on
/// the flat structures it measured slower than the plain probe it skips.
///
/// Every state change appends the changed row's id to the delta; the
/// next local iteration reads each row through rows() when it reaches it,
/// so an aggregate row drives at its value at that moment, never older
/// than the one that entered the delta. Not internally synchronized —
/// each worker owns its tables.
class RecursiveTable {
 public:
  RecursiveTable(const std::string& name, Schema stored_schema, AggSpec spec,
                 uint32_t partition_col, bool needs_join_index,
                 const EngineOptions& options);

  /// Merges `count` wire tuples packed `stride` words apart (stride ≥
  /// wire_arity(); the gather path packs them densely at the wire arity).
  void MergeBatch(const uint64_t* words, size_t count, uint32_t stride);

  /// The same over one TupleBuf per wire.
  void MergeBatch(const std::vector<TupleBuf>& wires) {
    MergeBatch(wires.empty() ? nullptr : wires.front().v, wires.size(),
               kMaxArity);
  }

  /// Merges one wire tuple through the indexed path. Returns true if the
  /// table changed (and the delta grew).
  bool MergeWire(const uint64_t* wire);

  /// EDB-cardinality presizing hint: reserves row storage, the join index,
  /// and the flat merge structures for ~`expected_rows` entries so
  /// the first iterations of a TC-style run don't pay growth rehashes.
  /// A min/max group map is left to grow: it holds one entry per group,
  /// not per driving row. A hint, not a cap — structures still grow past
  /// it on demand.
  void ReserveHint(uint64_t expected_rows);

  // --- Delta (δR_i) ---
  /// Ids of the rows accepted or changed since the last TakeDelta, in
  /// merge order; rows().Row(id) reads each. A group changed in two
  /// separate merges appears twice.
  const std::vector<uint32_t>& delta() const { return delta_; }
  uint64_t delta_size() const { return delta_.size(); }
  void ClearDelta() {
    DCD_AFFINITY_GUARD(writer_affinity_);
    delta_.clear();
  }

  /// Swaps the current delta into `*out` and leaves the table an empty
  /// delta with `*out`'s old capacity, so a caller that keeps `*out`
  /// across iterations allocates on neither side once warm. The worker
  /// iterates the snapshot while backpressure-driven gathers may grow the
  /// fresh delta concurrently (same thread, interleaved calls); a row id
  /// stays valid across those merges, a row pointer does not.
  void TakeDelta(std::vector<uint32_t>* out) {
    DCD_AFFINITY_GUARD(writer_affinity_);
    out->clear();
    out->swap(delta_);
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

  /// Row id of the stored tuple equal to `tuple`, or UINT64_MAX. Deletion
  /// paths use it to resolve a lost derivation to its row. kNone only. It
  /// leaves merge_probe_cmps() alone, so concurrent readers are safe.
  uint64_t FindRowId(TupleRef tuple) const {
    return FindRowId(tuple, tuple.Hash());
  }
  /// The same, with `hash` = tuple.Hash() computed by the caller.
  uint64_t FindRowId(TupleRef tuple, uint64_t hash) const {
    return exist_set_.Lookup(hash, tuple);
  }

  /// Row id of the min/max group whose key is the first group-arity words
  /// of `tuple`, or UINT64_MAX. The aggregate delete's lookup, read-only
  /// like FindRowId.
  uint64_t FindGroupRow(const uint64_t* tuple) const {
    const uint64_t* slot = flat_group_.Find(GroupKey(tuple));
    return slot == nullptr ? UINT64_MAX : *slot & kRowMask;
  }

  /// True when min/max value `candidate` beats `current`.
  bool BetterValue(uint64_t candidate, uint64_t current) const;

  /// Derivation stamp of a kNone, min or max row: the merge stamp in force
  /// when the row was appended or its group last bettered (see
  /// SetMergeStamp). It rides in the high word of the row's entry in the
  /// existence set or the group index, so reading it costs one lookup.
  uint32_t stamp(uint64_t row_id) const {
    const TupleRef row = rows_.Row(row_id);
    if (spec_.func == AggFunc::kNone) {
      return exist_set_.Tag(row.Hash(), row_id);
    }
    return static_cast<uint32_t>(*flat_group_.Find(GroupKey(row.data)) >> 32);
  }

  /// The stamp every later kNone, min or max merge writes. The engine
  /// raises it per gathered batch so that a row's stamp exceeds the stamp
  /// of every same-SCC row its first instance read (docs/INTERNALS.md §8).
  void SetMergeStamp(uint32_t stamp) { merge_stamp_ = stamp; }

  /// Removes the given rows (ascending, distinct row ids) in O(|ids|) work
  /// and clears the delta. Like Relation::RemoveRows, the last row fills
  /// each hole, highest id first; the existence set and the group index
  /// (with each survivor's stamp) and the join index follow the moves in
  /// place.
  /// Every other row keeps its id. kNone, min and max only: count and sum
  /// deletes recompute.
  void RemoveRows(const std::vector<uint64_t>& ids);

  /// OK when the existence set, the group index and the join index name
  /// exactly the stored rows, each under its own id. A consistency check
  /// for tests; O(rows).
  Status CheckIndexes() const;

  /// Starts a change log: from now on, every in-place change to a row
  /// already stored (an aggregate merge that bettered or bumped its value)
  /// records the row id. Rows appended later are not logged; they lie past
  /// the caller's row-count watermark. Called by the engine between runs.
  void StartChangeLog() {
    change_floor_ = rows_.size();
    changed_rows_.clear();
  }

  /// Row ids changed in place since StartChangeLog, sorted and
  /// deduplicated; leaves the log empty.
  std::vector<uint64_t> TakeChangedRows();

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

  /// Key/tuple comparisons spent probing the merge indexes (collision
  /// resolution work) — the engine surfaces the sum as
  /// EvalStats::merge_probe_cmps.
  uint64_t merge_probe_cmps() const {
    const uint64_t total = exist_set_.probe_cmps() +
                           flat_group_.probe_cmps() +
                           flat_contrib_.probe_cmps();
    return total - probe_cmps_base_;
  }

 private:
  U128 GroupKey(const uint64_t* wire) const {
    U128 k;
    k.hi = spec_.group_arity > 0 ? wire[0] : 0;
    k.lo = spec_.group_arity > 1 ? wire[1] : 0;
    return k;
  }

  uint64_t AppendRow(const uint64_t* stored);

  /// Marks a row as changed. Outside batch mode it enters the delta
  /// immediately; inside MergeBatch each changed row enters once, after the
  /// whole batch merged — otherwise m updates to one aggregate group would
  /// spawn m delta rows and the join fan-out would grow exponentially with
  /// the iteration count (catastrophic for sum-in-recursion). A row below
  /// the change-log floor also enters the change log.
  void PushDelta(uint64_t row_id);

  bool MergeNone(const uint64_t* wire, uint64_t hash);
  bool MergeMinMax(const uint64_t* wire);
  bool MergeCount(const uint64_t* wire);
  bool MergeSum(const uint64_t* wire);

  /// Adds a new group to the group index; `value` is its row id (under
  /// min/max, with the row's stamp in the high word).
  void InsertGroup(const U128& group, uint64_t value);

  const AggSpec spec_;
  const uint32_t partition_col_;
  const bool use_join_index_;
  const double sum_epsilon_;

  Relation rows_;
  // Row ids: every row id fits the low 32 bits of its existence-set or
  // group slot (AppendRow checks), so it fits here too.
  std::vector<uint32_t> delta_;

  FlatTupleSet exist_set_;    // kNone existence, keyed (hash, row id).
  // Aggregate group key → row id. A min/max row id fits the low 32 bits;
  // the row's stamp rides in the high 32, in the slot the merge already
  // touches.
  FlatGroupMap flat_group_;
  static constexpr uint64_t kRowMask = 0xffffffffULL;
  uint32_t merge_stamp_ = 0;
  FlatGroupMap flat_contrib_; // count/sum (group, contributor) → last value.

  DynIndex join_index_;

  // Per-batch hash scratch for the prefetch-pipelined kNone merge; member
  // so steady-state batches never allocate.
  std::vector<uint64_t> batch_hashes_;

  // Batch-mode delta deduplication (see PushDelta).
  bool batch_mode_ = false;
  std::vector<uint32_t> batch_changed_rows_;

  // Debug-only single-writer stamp: the owning worker's thread claims the
  // partition on its first mutation; any foreign write dies (empty in
  // release). Reads (rows(), stats) stay unguarded — MaterializeResults
  // legitimately reads all partitions after the workers joined.
  DCD_AFFINITY_OWNER(writer_affinity_, "recursive-table-writer");

  uint64_t merges_ = 0;
  uint64_t accepts_ = 0;

  // Change log (StartChangeLog): rows below the floor that changed in
  // place. The floor stays 0, and nothing is logged, outside incremental
  // sessions.
  uint64_t change_floor_ = 0;
  std::vector<uint64_t> changed_rows_;

  // Incremental sessions: the probe-comparison baseline ResetStats
  // subtracts so merge_probe_cmps() stays per-batch even though the flat
  // structures' counters accumulate.
  uint64_t probe_cmps_base_ = 0;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_RECURSIVE_TABLE_H_
