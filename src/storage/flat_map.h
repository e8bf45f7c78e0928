#ifndef DCDATALOG_STORAGE_FLAT_MAP_H_
#define DCDATALOG_STORAGE_FLAT_MAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/hot_path.h"
#include "common/logging.h"

namespace dcdatalog {

/// 128-bit composite key (two tuple words): a group-by key of up to two
/// columns, or a (group, contributor) pair such as the ⟨X, Y⟩ contribution
/// key PageRank needs (paper §6.2.1).
struct U128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const U128& a, const U128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

/// Flat open-addressed map from a 128-bit key to one 64-bit word — the
/// index behind the recursive tables' aggregate merge paths:
///   min/max:   group key        → row id of the group's current row
///   count/sum: (group, contrib) → contributor's last value word
/// and, as the Distributor's partial-aggregation fold map,
///   min/max:   group key        → offset of the group's staged wire
/// Linear probing over 32-byte slots (key + value + occupancy, two per
/// cache line); tombstone-free (the update path's Erase shifts the rest of
/// the probe run back); grows at ~60 % load. A slot is occupied when its
/// `used` word equals the map's current epoch, so Clear() empties the map
/// in O(1) and keeps its capacity. Values are updated in place through the
/// returned pointer, which stays valid until the next FindOrInsert,
/// Reserve or Erase (those may rehash or move slots).
///
/// Not internally synchronized — one per worker partition or per-worker
/// Distributor predicate.
class FlatGroupMap {
 public:
  FlatGroupMap() {
    slots_.assign(kInitialSlots, Slot{});
    mask_ = kInitialSlots - 1;
  }

  uint64_t size() const { return size_; }
  uint64_t slot_count() const { return slots_.size(); }

  /// Key comparisons performed while probing occupied slots (feeds the
  /// merge_probe_cmps engine counter).
  uint64_t probe_cmps() const { return probe_cmps_; }

  /// Presizes so `expected` entries stay under the 60 % growth threshold.
  /// Slot count rounds up to a power of two; never shrinks.
  void Reserve(uint64_t expected) {
    const uint64_t wanted =
        std::bit_ceil(std::max<uint64_t>(kInitialSlots, expected * 2));
    if (wanted > slots_.size()) Rehash(wanted);
  }

  void Prefetch(const U128& key) const {
    __builtin_prefetch(&slots_[Hash(key) & mask_], 0, 3);
  }

  /// Empties the map without touching its slots: every slot stamped with
  /// an older epoch reads as free from now on.
  void Clear() {
    ++epoch_;
    size_ = 0;
  }

  /// Returns a pointer to the value stored under `key`, or nullptr.
  uint64_t* Find(const U128& key) {
    for (uint64_t s = Hash(key) & mask_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.used != epoch_) return nullptr;
      ++probe_cmps_;
      if (slot.key == key) return &slot.value;
    }
  }

  /// The same without counting the probe: concurrent readers are safe.
  const uint64_t* Find(const U128& key) const {
    for (uint64_t s = Hash(key) & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.used != epoch_) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Removes `key`, which must be present (the update path; cold).
  /// Backward-shift deletion, as in FlatTupleSet::Erase.
  DCD_COLD_FN void Erase(const U128& key) {
    uint64_t hole = Hash(key) & mask_;
    for (;; hole = (hole + 1) & mask_) {
      DCD_CHECK(slots_[hole].used == epoch_) << "erased key not in the map";
      if (slots_[hole].key == key) break;
    }
    for (uint64_t s = (hole + 1) & mask_; slots_[s].used == epoch_;
         s = (s + 1) & mask_) {
      const uint64_t home = Hash(slots_[s].key) & mask_;
      if (((s - home) & mask_) >= ((s - hole) & mask_)) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole].used = 0;
    --size_;
  }

  /// fn(key, value) for every entry (consistency checks).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used == epoch_) fn(slot.key, slot.value);
    }
  }

  /// Returns a pointer to the value under `key`, inserting `value` first if
  /// the key is absent; `*inserted` reports which happened. Growth (if due)
  /// runs before the probe so the returned pointer survives the call.
  DCD_HOT_ROOT uint64_t* FindOrInsert(const U128& key, uint64_t value,
                                      bool* inserted) {
    DCD_COLD_CALL("amortized growth: one rehash doubles capacity, O(1) per insert");
    if ((size_ + 1) * 5 >= slots_.size() * 3) Rehash(slots_.size() * 2);
    for (uint64_t s = Hash(key) & mask_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.used != epoch_) {
        slot.key = key;
        slot.value = value;
        slot.used = epoch_;
        ++size_;
        *inserted = true;
        return &slot.value;
      }
      ++probe_cmps_;
      if (slot.key == key) {
        *inserted = false;
        return &slot.value;
      }
    }
  }

 private:
  static constexpr uint64_t kInitialSlots = 64;

  struct Slot {
    U128 key;
    uint64_t value = 0;
    uint64_t used = 0;  // Epoch of the insert; 0 never matches. A full
                        // word keeps the slot 32 B / naturally aligned.
  };

  static uint64_t Hash(const U128& key) { return HashCombine(key.hi, key.lo); }

  // Out-of-line (DCD_COLD_FN) so the binary backstop sees growth as a
  // distinct cold symbol rather than inlined into FindOrInsert.
  DCD_COLD_FN void Rehash(uint64_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    mask_ = new_slots - 1;
    for (const Slot& slot : old) {
      if (slot.used != epoch_) continue;
      uint64_t s = Hash(slot.key) & mask_;
      while (slots_[s].used == epoch_) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint64_t size_ = 0;
  uint64_t epoch_ = 1;
  mutable uint64_t probe_cmps_ = 0;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_FLAT_MAP_H_
