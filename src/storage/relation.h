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
/// Semi-naive evaluation only ever appends; RemoveRows is the update path's
/// removal, which fills each hole from the tail.
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

  /// Overwrites a whole row in place (an incremental session moving an
  /// aggregate group's row to the relation's tail).
  void SetRow(uint64_t row_id, TupleRef row) {
    DCD_DCHECK(row_id < size() && row.arity == arity());
    std::copy_n(row.data, row.arity, data_.begin() + row_id * arity());
  }

  void Clear() { data_.clear(); }

  /// Removes row `id` by filling the hole from the tail: the last row moves
  /// into it (unless `id` is the last row). Every other row keeps its id,
  /// and the Relation keeps its address.
  void RemoveRow(uint64_t id) {
    DCD_DCHECK(id < size());
    const uint32_t a = arity();
    const size_t last = data_.size() - a;
    if (id * a != last) {
      std::copy_n(data_.begin() + last, a, data_.begin() + id * a);
    }
    data_.resize(last);
  }

  /// Removes the rows `ids` (ascending, distinct) in O(|ids|) work:
  /// RemoveRow on each, highest id first, so every row that moves into a
  /// hole is a survivor. An index over the relation follows the same moves
  /// (see e.g. ChainedIndex::RemoveRow).
  void RemoveRows(const std::vector<uint64_t>& ids) {
    for (size_t i = ids.size(); i-- > 0;) {
      DCD_DCHECK(i == 0 || ids[i - 1] < ids[i]);
      RemoveRow(ids[i]);
    }
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
