#ifndef DCDATALOG_STORAGE_RELATION_H_
#define DCDATALOG_STORAGE_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// In-memory row store: fixed-width rows of `arity` 64-bit words packed into
/// one flat vector. Rows are addressed by dense row id (insertion order).
/// Semi-naive evaluation only ever appends; EraseRowsIf is the update
/// path's in-place compaction.
///
/// Not internally synchronized: during parallel evaluation each worker owns
/// its partitioned Relation exclusively (the whole point of the paper's
/// partitioning scheme).
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint32_t arity() const { return static_cast<uint32_t>(schema_.arity()); }

  uint64_t size() const {
    uint32_t a = arity();
    return a == 0 ? 0 : data_.size() / a;
  }
  bool empty() const { return data_.empty(); }

  /// Appends one row; returns its row id. `row` must have exactly arity()
  /// words.
  uint64_t Append(TupleRef row) {
    DCD_DCHECK(row.arity == arity());
    uint64_t id = size();
    data_.insert(data_.end(), row.data, row.data + row.arity);
    return id;
  }

  uint64_t Append(std::initializer_list<uint64_t> words) {
    DCD_DCHECK(words.size() == arity());
    uint64_t id = size();
    data_.insert(data_.end(), words.begin(), words.end());
    return id;
  }

  TupleRef Row(uint64_t row_id) const {
    DCD_DCHECK(row_id < size());
    return TupleRef{data_.data() + row_id * arity(), arity()};
  }

  /// Overwrites one column of an existing row (used by aggregate merges,
  /// which update values in place per paper §6.2.1).
  void SetWord(uint64_t row_id, uint32_t col, uint64_t word) {
    DCD_DCHECK(row_id < size() && col < arity());
    data_[row_id * arity() + col] = word;
  }

  void Clear() { data_.clear(); }

  /// Removes every row for which `drop(TupleRef)` returns true, compacting
  /// the survivors in place: they keep their relative order, and the
  /// Relation keeps its address and buffer. `drop` sees each row once, in
  /// row order.
  template <typename Fn>
  void EraseRowsIf(Fn&& drop) {
    const uint32_t a = arity();
    if (a == 0) return;
    size_t out = 0;
    for (size_t in = 0; in < data_.size(); in += a) {
      if (drop(TupleRef{data_.data() + in, a})) continue;
      if (out != in) {
        std::copy_n(data_.begin() + in, a, data_.begin() + out);
      }
      out += a;
    }
    data_.resize(out);
  }

  void Reserve(uint64_t rows) { data_.reserve(rows * arity()); }

  /// Appends every row of `other` (schemas must match in arity).
  void AppendAll(const Relation& other);

  /// Stable human-readable dump (tests and small examples only).
  std::string ToString(uint64_t max_rows = 32) const;

  const std::vector<uint64_t>& raw() const { return data_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<uint64_t> data_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_RELATION_H_
