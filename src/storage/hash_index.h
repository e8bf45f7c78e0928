#ifndef DCDATALOG_STORAGE_HASH_INDEX_H_
#define DCDATALOG_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "storage/relation.h"

namespace dcdatalog {

/// Immutable-after-build hash index mapping a 64-bit join key to the row ids
/// of a relation that carry it. Built once per base-relation partition
/// before evaluation starts (Algorithm 1 line 3) and then probed read-only
/// by the join operators, so no synchronization is needed.
///
/// Layout: open chaining over two flat arrays (bucket heads + next links),
/// which keeps the build a single pass and probes pointer-free.
class HashIndex {
 public:
  HashIndex() = default;

  /// Builds the index over `relation`, keyed by column `key_col`.
  void Build(const Relation& relation, uint32_t key_col);

  /// Appends rows [from_row, relation.size()) of `relation` to an already
  /// built index — the incremental-maintenance path syncing a base index
  /// after an EDB insert batch, instead of rebuilding the whole index. When
  /// the entry count outgrows the bucket array the chains are rebuilt once
  /// (same load factor as Build). Probes remain single-threaded-build /
  /// multi-threaded-read: callers must Append before workers start probing.
  void Append(const Relation& relation, uint32_t key_col, uint64_t from_row);

  bool built() const { return !buckets_.empty() || entries_empty_; }
  uint64_t size() const { return keys_.size(); }

  /// Prefetches the bucket head for `key` — the batch pipeline issues this
  /// several lanes ahead of the probe pass so the dependent DRAM load of the
  /// chain head overlaps earlier probes instead of serializing.
  void Prefetch(uint64_t key) const {
    if (buckets_.empty()) return;
    __builtin_prefetch(&buckets_[HashMix64(key) & bucket_mask_], 0 /*read*/,
                       3 /*high locality*/);
  }

  /// Calls fn(row_id) for every row whose key equals `key`. fn returns false
  /// to stop early. Returns the number of matches visited.
  template <typename Fn>
  uint64_t ForEachMatch(uint64_t key, Fn&& fn) const {
    if (buckets_.empty()) return 0;
    uint64_t n = 0;
    uint64_t b = HashMix64(key) & bucket_mask_;
    for (uint32_t e = buckets_[b]; e != kNil; e = next_[e]) {
      if (keys_[e] == key) {
        ++n;
        if (!fn(row_ids_[e])) break;
      }
    }
    return n;
  }

  bool Contains(uint64_t key) const {
    bool found = false;
    ForEachMatch(key, [&found](uint64_t) {
      found = true;
      return false;
    });
    return found;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  void Finish();

  bool entries_empty_ = false;
  uint64_t bucket_mask_ = 0;
  std::vector<uint32_t> buckets_;  // head entry index per bucket
  std::vector<uint32_t> next_;     // chain links, parallel to keys_
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> row_ids_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_HASH_INDEX_H_
