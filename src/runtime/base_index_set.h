#ifndef DCDATALOG_RUNTIME_BASE_INDEX_SET_H_
#define DCDATALOG_RUNTIME_BASE_INDEX_SET_H_

#include <cstdint>
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
  /// batches, or upstream IDB relations extended in place). Rows that left
  /// the relation must have gone through RemoveRows.
  Status SyncAppended(int id, const Catalog& catalog);

  /// Appends to `ids` the id of every row of `relation` equal to `row` when
  /// index `id` is built over that very relation: probes the indexed prefix
  /// and scans only the rows appended since the last sync. Returns false,
  /// appending nothing, when the index cannot answer.
  bool FindEqualRows(int id, const Relation& relation, TupleRef row,
                     std::vector<uint64_t>* ids) const;

  /// Keeps every built index over `relation` in step with
  /// `relation`.RemoveRows(ids) (ids ascending): call it just before. An
  /// index that lags the relation first indexes the rows it is missing, so
  /// a row the fill moves in from the tail is never lost. O(|ids|) chain
  /// edits per index, no rebuild.
  void RemoveRows(const Relation& relation, const std::vector<uint64_t>& ids);

  /// Keeps every built index over `relation` in step with row `row` being
  /// overwritten by `next` (Relation::SetRow): call it just before. An
  /// index keyed on a changed column moves the row to its new key's chain.
  void RewriteRow(const Relation& relation, uint64_t row, TupleRef next);

  /// OK when every built index equals a fresh build over the rows of its
  /// relation it has indexed. A consistency check for tests.
  Status CheckIndexes() const;

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

  /// Indexes rows the relation appended since the last build or sync.
  static void CatchUp(Entry* e);

  std::vector<Entry> entries_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_BASE_INDEX_SET_H_
