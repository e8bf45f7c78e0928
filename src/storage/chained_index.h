#ifndef DCDATALOG_STORAGE_CHAINED_INDEX_H_
#define DCDATALOG_STORAGE_CHAINED_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "storage/relation.h"

namespace dcdatalog {

/// The layout HashIndex and DynIndex share: a hash multimap from a 64-bit
/// join key to the rows of a relation that carry it, open chaining over
/// flat arrays (a power-of-two table of chain heads, plus one key and one
/// next link per entry), so probes stay pointer-free.
///
/// Entry e always indexes row e: entries are added in row order, and a
/// removal follows Relation::RemoveRows' fill from the tail (RemoveRow).
/// So an entry needs no row id, and a probe hands the entry index itself
/// to its callback.
class ChainedIndex {
 public:
  uint64_t size() const { return keys_.size(); }
  uint64_t bucket_count() const { return buckets_.size(); }

  /// Prefetches the bucket head for `key` — the batch pipeline issues this
  /// several lanes ahead of the probe pass so the dependent DRAM load of the
  /// chain head overlaps earlier probes instead of serializing.
  void Prefetch(uint64_t key) const {
    __builtin_prefetch(&buckets_[HashMix64(key) & mask_], 0 /*read*/,
                       3 /*high locality*/);
  }

  /// Calls fn(row_id) for every row whose key equals `key`. fn returns false
  /// to stop early. Returns the number of matches visited.
  template <typename Fn>
  uint64_t ForEachMatch(uint64_t key, Fn&& fn) const {
    uint64_t n = 0;
    for (uint32_t e = buckets_[HashMix64(key) & mask_]; e != kNil;
         e = next_[e]) {
      if (keys_[e] == key) {
        ++n;
        if (!fn(uint64_t{e})) break;
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

  /// Follows the relation removing row `row` by a fill from the tail: drops
  /// the row's entry and renumbers the last entry to `row`. Cold, and
  /// O(length of the two chains involved).
  void RemoveRow(uint64_t row) {
    DCD_DCHECK(row < size());
    const uint32_t e = static_cast<uint32_t>(row);
    const uint32_t last = static_cast<uint32_t>(size() - 1);
    *LinkTo(e) = next_[e];
    if (e != last) {
      *LinkTo(last) = e;
      keys_[e] = keys_[last];
      next_[e] = next_[last];
    }
    keys_.pop_back();
    next_.pop_back();
  }

  /// Follows row `row` being overwritten in place with a row whose key is
  /// `key`: moves its entry to the new key's chain.
  void Rekey(uint64_t row, uint64_t key) {
    DCD_DCHECK(row < size());
    const uint32_t e = static_cast<uint32_t>(row);
    if (keys_[e] == key) return;
    *LinkTo(e) = next_[e];
    keys_[e] = key;
    Link(e);
  }

  /// True when the index equals a fresh build over the first `rows` rows of
  /// `relation` keyed by column `key_col`: entry e carries row e's key, and
  /// each entry sits exactly once on the chain its key hashes to. A
  /// consistency check for tests; O(rows + buckets).
  bool Matches(const Relation& relation, uint32_t key_col,
               uint64_t rows) const {
    if (size() != rows || rows > relation.size()) return false;
    for (uint64_t e = 0; e < rows; ++e) {
      if (keys_[e] != relation.Row(e)[key_col]) return false;
    }
    std::vector<uint8_t> seen(rows, 0);
    uint64_t linked = 0;
    for (uint64_t b = 0; b < buckets_.size(); ++b) {
      for (uint32_t e = buckets_[b]; e != kNil; e = next_[e]) {
        if (e >= rows || seen[e] != 0 ||
            (HashMix64(keys_[e]) & mask_) != b) {
          return false;
        }
        seen[e] = 1;
        ++linked;
      }
    }
    return linked == rows;
  }

 protected:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// Re-chains every entry over `buckets` heads (a power of two).
  void Rechain(uint64_t buckets) {
    buckets_.assign(buckets, kNil);
    mask_ = buckets - 1;
    next_.resize(keys_.size());
    for (uint64_t e = 0; e < keys_.size(); ++e) {
      Link(static_cast<uint32_t>(e));
    }
  }

  /// Pushes entry `e` onto the head of its key's chain.
  void Link(uint32_t e) {
    uint32_t& head = buckets_[HashMix64(keys_[e]) & mask_];
    next_[e] = head;
    head = e;
  }

  // One bucket and an empty chain until the first Rechain, so a probe
  // needs no emptiness check.
  uint64_t mask_ = 0;
  std::vector<uint32_t> buckets_{kNil};
  std::vector<uint32_t> next_;  // Chain links, parallel to keys_.
  std::vector<uint64_t> keys_;

 private:
  /// The link that names entry `e`: its bucket head or its predecessor's
  /// next link.
  uint32_t* LinkTo(uint32_t e) {
    uint32_t* link = &buckets_[HashMix64(keys_[e]) & mask_];
    while (*link != e) link = &next_[*link];
    return link;
  }
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_CHAINED_INDEX_H_
