#include "storage/hash_index.h"

#include <algorithm>
#include <bit>

namespace dcdatalog {

void HashIndex::Build(const Relation& relation, uint32_t key_col) {
  const uint64_t n = relation.size();
  // Capacity up to the rehash threshold (half the buckets Rechain sizes):
  // virtual memory only until touched, and the appends of the first
  // insert batches after a build then neither reallocate nor copy.
  const uint64_t capacity = n == 0 ? 0 : std::bit_ceil(n * 2) / 2;
  keys_.reserve(capacity);
  next_.reserve(capacity);
  keys_.resize(n);
  for (uint64_t r = 0; r < n; ++r) keys_[r] = relation.Row(r)[key_col];
  // Load factor ~0.5 over a power-of-two bucket table.
  Rechain(std::bit_ceil(std::max<uint64_t>(1, n * 2)));
}

void HashIndex::Append(const Relation& relation, uint32_t key_col,
                       uint64_t from_row) {
  DCD_DCHECK(from_row == size());  // Entry e indexes row e.
  const uint64_t n = relation.size();
  if (from_row >= n) return;
  // No exact reserve: many small insert batches must grow the arrays
  // geometrically, not reallocate and copy them on every batch.
  for (uint64_t r = from_row; r < n; ++r) {
    keys_.push_back(relation.Row(r)[key_col]);
  }
  if (keys_.size() * 2 > buckets_.size()) {
    // Outgrew the ~0.5 load factor: rebuild every chain over a wider table.
    Rechain(std::bit_ceil(keys_.size() * 2));
    return;
  }
  next_.resize(keys_.size());
  for (uint64_t e = from_row; e < n; ++e) Link(static_cast<uint32_t>(e));
}

}  // namespace dcdatalog
