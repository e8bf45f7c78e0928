#ifndef DCDATALOG_STORAGE_DYN_INDEX_H_
#define DCDATALOG_STORAGE_DYN_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>

#include "storage/chained_index.h"

namespace dcdatalog {

/// Growable hash multimap from 64-bit key to row ids, supporting
/// incremental insertion — the join index a recursive-table replica
/// maintains on its partition column so non-linear rules can probe it
/// (paper §4.3). Chained like HashIndex, but rehashes as it grows. Not
/// internally synchronized: one per worker replica.
class DynIndex : public ChainedIndex {
 public:
  DynIndex() { Rechain(kInitialBuckets); }

  /// Presizes for ~`expected` entries (EDB cardinality hint): the bucket
  /// array grows to the next power of two ≥ expected and the entry arrays
  /// reserve, so incremental insertion up to the hint never pays an O(n)
  /// chain rebuild. Existing chains are rebuilt once here; never shrinks.
  void Reserve(uint64_t expected) {
    keys_.reserve(expected);
    next_.reserve(expected);
    const uint64_t wanted =
        std::bit_ceil(std::max<uint64_t>(kInitialBuckets, expected));
    if (wanted > buckets_.size()) Rechain(wanted);
  }

  /// Indexes the next row, id size(), under `key`.
  void Insert(uint64_t key) {
    keys_.push_back(key);
    next_.push_back(kNil);
    if (keys_.size() > buckets_.size()) {
      // Re-chains everything, the new entry included.
      Rechain(buckets_.size() * 2);
      return;
    }
    Link(static_cast<uint32_t>(keys_.size() - 1));
  }

 private:
  static constexpr uint64_t kInitialBuckets = 64;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_DYN_INDEX_H_
