#ifndef DCDATALOG_STORAGE_HASH_INDEX_H_
#define DCDATALOG_STORAGE_HASH_INDEX_H_

#include <cstdint>

#include "storage/chained_index.h"
#include "storage/relation.h"

namespace dcdatalog {

/// Hash index mapping a 64-bit join key to the row ids of a relation that
/// carry it. Built once per base-relation partition before evaluation
/// starts (Algorithm 1 line 3) and then probed read-only by the join
/// operators, so no synchronization is needed. An incremental session
/// keeps it in step with its relation between runs: Append for inserted
/// rows, RemoveRow and Rekey (ChainedIndex) for removed and rewritten ones.
class HashIndex : public ChainedIndex {
 public:
  HashIndex() = default;

  /// Builds the index over `relation`, keyed by column `key_col`.
  void Build(const Relation& relation, uint32_t key_col);

  /// Appends rows [from_row, relation.size()) of `relation` to an already
  /// built index holding rows [0, from_row) — the incremental-maintenance
  /// path syncing a base index after an EDB insert batch, instead of
  /// rebuilding the whole index. When the entry count outgrows the bucket
  /// array the chains are rebuilt once (same load factor as Build). Probes
  /// remain single-threaded-build / multi-threaded-read: callers must
  /// Append before workers start probing.
  void Append(const Relation& relation, uint32_t key_col, uint64_t from_row);
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_HASH_INDEX_H_
