#include "storage/hash_index.h"

#include <bit>

namespace dcdatalog {

void HashIndex::Build(const Relation& relation, uint32_t key_col) {
  const uint64_t n = relation.size();
  // Capacity up to the rehash threshold (half the buckets Finish sizes):
  // virtual memory only until touched, and the appends of the first
  // insert batches after a build then neither reallocate nor copy.
  const uint64_t capacity = n == 0 ? 0 : std::bit_ceil(n * 2) / 2;
  keys_.reserve(capacity);
  row_ids_.reserve(capacity);
  next_.reserve(capacity);
  keys_.resize(n);
  row_ids_.resize(n);
  for (uint64_t r = 0; r < n; ++r) {
    keys_[r] = relation.Row(r)[key_col];
    row_ids_[r] = r;
  }
  Finish();
}

void HashIndex::Append(const Relation& relation, uint32_t key_col,
                       uint64_t from_row) {
  const uint64_t n = relation.size();
  if (from_row >= n) return;
  // No exact reserve: many small insert batches must grow the arrays
  // geometrically, not reallocate and copy them on every batch.
  for (uint64_t r = from_row; r < n; ++r) {
    keys_.push_back(relation.Row(r)[key_col]);
    row_ids_.push_back(r);
  }
  if (keys_.size() * 2 > buckets_.size()) {
    // Outgrew the ~0.5 load factor: rebuild every chain over a wider table.
    Finish();
    return;
  }
  next_.resize(keys_.size());
  for (uint64_t i = keys_.size() - (n - from_row); i < keys_.size(); ++i) {
    uint64_t b = HashMix64(keys_[i]) & bucket_mask_;
    next_[i] = buckets_[b];
    buckets_[b] = static_cast<uint32_t>(i);
  }
}

void HashIndex::Finish() {
  const uint64_t n = keys_.size();
  if (n == 0) {
    entries_empty_ = true;
    buckets_.clear();
    next_.clear();
    return;
  }
  // Load factor ~0.5 over a power-of-two bucket table.
  uint64_t buckets = std::bit_ceil(n * 2);
  bucket_mask_ = buckets - 1;
  buckets_.assign(buckets, kNil);
  next_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t b = HashMix64(keys_[i]) & bucket_mask_;
    next_[i] = buckets_[b];
    buckets_[b] = static_cast<uint32_t>(i);
  }
}

}  // namespace dcdatalog
