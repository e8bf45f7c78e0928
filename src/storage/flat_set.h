#ifndef DCDATALOG_STORAGE_FLAT_SET_H_
#define DCDATALOG_STORAGE_FLAT_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/hot_path.h"
#include "common/logging.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// Tuple-existence set over the rows of a backing Relation: the flat
/// merge-path dedup structure (semi-naive set difference for kNone
/// recursion). Open addressing with linear probing over 16-byte
/// (hash, row_id) slots — the cached hash lets a probe reject a colliding
/// slot without dereferencing the backing row, and lets growth rehash
/// without touching row storage at all. A row id fits the low 32 bits of
/// its word; the high 32 hold the entry's tag (a recursive table's
/// derivation stamp), in the slot the merge already writes.
/// Tombstone-free: merge never deletes, and the update path's Erase shifts
/// the rest of the probe run back instead of leaving a marker. Grows at ~60 % load; `Reserve`
/// presizes from EDB cardinality hints so first-iteration TC runs don't
/// pay a rehash storm.
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

  /// Returns the row id of the stored tuple equal to `tuple`, or kNotFound.
  /// `hash` must be `tuple.Hash()` (or the caller's consistent choice).
  DCD_HOT_ROOT uint64_t Find(uint64_t hash, TupleRef tuple) const {
    for (uint64_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == kEmptyRow) return kNotFound;
      if (slot.hash == hash) {
        ++probe_cmps_;
        const uint64_t row = slot.row & kRowMask;
        if (backing_->Row(row) == tuple) return row;
      }
    }
  }

  /// Find without counting comparisons, for lookups that are not merges:
  /// they stay out of probe_cmps() and may run on several threads at once.
  uint64_t Lookup(uint64_t hash, TupleRef tuple) const {
    for (uint64_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.row == kEmptyRow) return kNotFound;
      if (slot.hash == hash && backing_->Row(slot.row & kRowMask) == tuple) {
        return slot.row & kRowMask;
      }
    }
  }

  /// Removes the entry of row `row_id`, stored under `hash` (the update
  /// path; cold). Backward-shift deletion: each later entry of the probe
  /// run whose home slot lies at or before the hole moves into it, so
  /// probes never need a tombstone.
  DCD_COLD_FN void Erase(uint64_t hash, uint64_t row_id) {
    uint64_t hole = SlotOf(hash, row_id);
    for (uint64_t s = (hole + 1) & mask_; slots_[s].row != kEmptyRow;
         s = (s + 1) & mask_) {
      const uint64_t home = slots_[s].hash & mask_;
      if (((s - home) & mask_) >= ((s - hole) & mask_)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Renames row `from`, stored under `hash`, to `to`, keeping its tag: a
  /// fill from the tail moved the row (Relation::RemoveRows).
  DCD_COLD_FN void Renumber(uint64_t hash, uint64_t from, uint64_t to) {
    uint64_t& row = slots_[SlotOf(hash, from)].row;
    row = (row & ~kRowMask) | to;
  }

  /// The tag of row `row_id`, stored under `hash`; the entry must exist.
  uint32_t Tag(uint64_t hash, uint64_t row_id) const {
    return static_cast<uint32_t>(slots_[SlotOf(hash, row_id)].row >> 32);
  }

  /// fn(hash, row_id) for every entry (consistency checks).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.row != kEmptyRow) fn(slot.hash, slot.row & kRowMask);
    }
  }

  /// Inserts `row_id` (below UINT32_MAX) under `hash`, tagged `tag`. The
  /// caller must have established via Find that no equal tuple is present
  /// (merge probes exactly once).
  DCD_HOT_ROOT void Insert(uint64_t hash, uint64_t row_id, uint32_t tag = 0) {
    DCD_DCHECK(row_id < kRowMask);
    uint64_t s = hash & mask_;
    while (slots_[s].row != kEmptyRow) s = (s + 1) & mask_;
    slots_[s] = Slot{hash, (static_cast<uint64_t>(tag) << 32) | row_id};
    ++size_;
    DCD_COLD_CALL("amortized growth: one rehash doubles capacity, O(1) per insert");
    if (size_ * 5 >= slots_.size() * 3) Rehash(slots_.size() * 2);
  }

 private:
  // A row id's low word is never all ones, so no tag makes an entry read
  // as empty.
  static constexpr uint64_t kEmptyRow = UINT64_MAX;
  static constexpr uint64_t kRowMask = 0xffffffffULL;
  static constexpr uint64_t kInitialSlots = 64;

  struct Slot {
    uint64_t hash = 0;
    uint64_t row = kEmptyRow;  // Tag in the high word, row id in the low.
  };

  /// The slot holding row `row_id` under `hash`; the entry must exist.
  uint64_t SlotOf(uint64_t hash, uint64_t row_id) const {
    for (uint64_t s = hash & mask_;; s = (s + 1) & mask_) {
      DCD_CHECK(slots_[s].row != kEmptyRow)
          << "row " << row_id << " is not in the set";
      if ((slots_[s].row & kRowMask) == row_id) return s;
    }
  }

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
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_FLAT_SET_H_
