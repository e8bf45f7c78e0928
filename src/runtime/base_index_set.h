#ifndef DCDATALOG_RUNTIME_BASE_INDEX_SET_H_
#define DCDATALOG_RUNTIME_BASE_INDEX_SET_H_

#include <type_traits>
#include <vector>

#include "common/status.h"
#include "planner/physical_plan.h"
#include "storage/catalog.h"
#include "storage/hash_index.h"

namespace dcdatalog {

/// The global read-only hash indexes over base relations that join probes
/// and anti-joins use (Algorithm 1 line 3). "Base" here means any relation
/// that is input to the SCC being evaluated: EDB tables and the materialized
/// results of earlier SCCs. Indexes are built lazily — EnsureBuilt runs
/// before an SCC starts, because an earlier SCC may only just have
/// materialized the relation — and are then probed concurrently by all
/// workers without synchronization.
class BaseIndexSet {
 public:
  explicit BaseIndexSet(const std::vector<BaseIndexReq>& requests);

  /// Builds index `id` from the catalog if it is not built yet.
  Status EnsureBuilt(int id, const Catalog& catalog);

  /// Builds index `id` over `relation` instead of the catalog's relation of
  /// that name, if it is not built yet: the deletion path's view of a
  /// relation as it was before the batch removed rows from it. `relation`
  /// must outlive every probe.
  void EnsureBuiltOver(int id, const Relation& relation);

  /// Incremental-maintenance sync: EnsureBuilt, then index any rows the
  /// backing relation appended since the last build/sync (EDB insert
  /// batches, or upstream IDB relations extended in place). Requires the
  /// relation to have only grown; shrinking relations must Invalidate first.
  Status SyncAppended(int id, const Catalog& catalog);

  /// Drops index `id` so the next EnsureBuilt rebuilds it from scratch —
  /// the deletion path, where the backing relation was rewritten in place.
  void Invalidate(int id);

  bool IsBuilt(int id) const { return entries_[id].built; }

  /// Counts the rows of `relation` equal to `row` when index `id` is built
  /// over that very relation: probes the indexed prefix and scans only the
  /// rows appended since the last sync. Returns false, counting nothing,
  /// when the index cannot answer.
  bool CountEqualRows(int id, const Relation& relation, TupleRef row,
                      uint64_t* count) const;

  /// fn(TupleRef row) for each row of the indexed relation whose key column
  /// equals `key`. fn may return void (visit everything) or bool — false
  /// stops the iteration early (anti-joins stop at the first witness).
  template <typename Fn>
  void ForEachMatch(int id, uint64_t key, Fn&& fn) const {
    const Entry& e = entries_[id];
    e.hash.ForEachMatch(key, [&](uint64_t row_id) {
      if constexpr (std::is_void_v<std::invoke_result_t<Fn&, TupleRef>>) {
        fn(e.relation->Row(row_id));
        return true;
      } else {
        return fn(e.relation->Row(row_id));
      }
    });
  }

  /// Prefetches index `id`'s bucket head for `key`. Issued by the batch
  /// pipeline several lanes ahead of the probe pass.
  void Prefetch(int id, uint64_t key) const { entries_[id].hash.Prefetch(key); }

 private:
  struct Entry {
    BaseIndexReq req;
    const Relation* relation = nullptr;
    bool built = false;
    uint64_t rows_indexed = 0;  // Watermark for SyncAppended.
    HashIndex hash;
  };

  std::vector<Entry> entries_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_BASE_INDEX_SET_H_
