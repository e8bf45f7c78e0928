#ifndef DCDATALOG_STORAGE_FLAT_SET_H_
#define DCDATALOG_STORAGE_FLAT_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/hot_path.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// Tuple-existence set over the rows of a backing Relation: the flat
/// merge-path dedup structure (semi-naive set difference for kNone
/// recursion). Open addressing with linear probing over 16-byte
/// (hash, row_id) slots — the cached hash lets a probe reject a colliding
/// slot without dereferencing the backing row, and lets growth rehash
/// without touching row storage at all. Tombstone-free (merge never
/// deletes); grows at ~60 % load; `Reserve` presizes from EDB cardinality
/// hints so first-iteration TC runs don't pay a rehash storm.
///
/// The caller supplies the hash (RecursiveTable hashes each wire batch up
/// front for prefetch pipelining); tests exploit this to force collision
/// chains with equal hashes but distinct tuples.
///
/// Not internally synchronized — one per worker partition.
class FlatTupleSet {
 public:
  static constexpr uint64_t kNotFound = UINT64_MAX;

  explicit FlatTupleSet(const Relation* backing) : backing_(backing) {
    slots_.assign(kInitialSlots, Slot{});
    mask_ = kInitialSlots - 1;
  }

  uint64_t size() const { return size_; }
  uint64_t slot_count() const { return slots_.size(); }

  /// Full-tuple comparisons performed while probing (collision-resolution
  /// work; feeds the merge_probe_cmps engine counter).
  uint64_t probe_cmps() const { return probe_cmps_; }

  /// Presizes so `expected` entries stay under the 60 % growth threshold.
  /// Slot count rounds up to a power of two; never shrinks.
  void Reserve(uint64_t expected) {
    const uint64_t wanted =
        std::bit_ceil(std::max<uint64_t>(kInitialSlots, expected * 2));
    if (wanted > slots_.size()) Rehash(wanted);
  }

  /// Prefetches the home slot for `hash` — issued N tuples ahead in the
  /// pipelined merge so the dependent load overlaps earlier probes.
  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(&slots_[hash & mask_], 0 /*read*/, 3 /*high locality*/);
  }

  /// Second prefetch stage, once the home slot is cached: prefetches the
  /// backing row of the first slot holding `hash`, which the Find that
  /// follows compares against.
  void PrefetchRow(uint64_t hash) const {
    for (uint64_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == kEmptyRow) return;
      if (slot.hash == hash) {
        __builtin_prefetch(backing_->Row(slot.row).data, 0, 3);
        return;
      }
    }
  }

  /// Returns the row id of the stored tuple equal to `tuple`, or kNotFound.
  /// `hash` must be `tuple.Hash()` (or the caller's consistent choice).
  DCD_HOT_ROOT uint64_t Find(uint64_t hash, TupleRef tuple) const {
    for (uint64_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == kEmptyRow) return kNotFound;
      if (slot.hash == hash) {
        ++probe_cmps_;
        if (backing_->Row(slot.row) == tuple) return slot.row;
      }
    }
  }

  /// Find without counting comparisons, for lookups that are not merges:
  /// they stay out of probe_cmps() and may run on several threads at once.
  uint64_t Lookup(uint64_t hash, TupleRef tuple) const {
    for (uint64_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == kEmptyRow) return kNotFound;
      if (slot.hash == hash && backing_->Row(slot.row) == tuple) {
        return slot.row;
      }
    }
  }

  /// Inserts `row_id` under `hash`. The caller must have established via
  /// Find that no equal tuple is present (merge probes exactly once).
  DCD_HOT_ROOT void Insert(uint64_t hash, uint64_t row_id) {
    uint64_t s = hash & mask_;
    while (slots_[s].row != kEmptyRow) s = (s + 1) & mask_;
    slots_[s] = Slot{hash, row_id};
    ++size_;
    DCD_COLD_CALL("amortized growth: one rehash doubles capacity, O(1) per insert");
    if (size_ * 5 >= slots_.size() * 3) Rehash(slots_.size() * 2);
  }

  /// Support counts for incremental maintenance: one derivation counter per
  /// stored row, riding beside the slot table and keyed by row id so growth
  /// rehashes never have to move them. Off by default (no memory cost for
  /// plain evaluation); an incremental session enables them and bumps the
  /// counter on *every* arrival of a tuple — insert or duplicate — so in a
  /// non-recursive stratum the counter equals the number of surviving
  /// derivations and a deletion can decrement to zero instead of
  /// recomputing.
  void EnableCounts() { counts_enabled_ = true; }
  bool counts_enabled() const { return counts_enabled_; }

  void IncrementCount(uint64_t row_id) {
    if (row_id >= counts_.size()) counts_.resize(row_id + 1, 0);
    ++counts_[row_id];
  }

  /// Decrements and returns the new count (0 means the row lost its last
  /// derivation). The row must have a positive count.
  uint64_t DecrementCount(uint64_t row_id) { return --counts_[row_id]; }

  uint64_t CountOf(uint64_t row_id) const {
    return row_id < counts_.size() ? counts_[row_id] : 0;
  }

  /// Restores a row's counter directly — compaction rebuilds carrying the
  /// survivors' counts over to their new row ids.
  void SetCount(uint64_t row_id, uint64_t count) {
    if (row_id >= counts_.size()) counts_.resize(row_id + 1, 0);
    counts_[row_id] = count;
  }

 private:
  static constexpr uint64_t kEmptyRow = UINT64_MAX;
  static constexpr uint64_t kInitialSlots = 64;

  struct Slot {
    uint64_t hash = 0;
    uint64_t row = kEmptyRow;
  };

  // Kept out-of-line (DCD_COLD_FN) so the binary-level backstop can verify
  // the inlined bodies of Find/Insert contain no direct allocator call —
  // growth stays behind this distinct cold symbol.
  DCD_COLD_FN void Rehash(uint64_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    mask_ = new_slots - 1;
    for (const Slot& slot : old) {
      if (slot.row == kEmptyRow) continue;
      uint64_t s = slot.hash & mask_;
      while (slots_[s].row != kEmptyRow) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  const Relation* backing_;
  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint64_t size_ = 0;
  mutable uint64_t probe_cmps_ = 0;
  bool counts_enabled_ = false;
  std::vector<uint64_t> counts_;  // Indexed by row id; counts_enabled_ only.
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_FLAT_SET_H_
