#include "runtime/recursive_table.h"

#include <algorithm>
#include <cmath>

#include "common/hot_path.h"
#include "common/logging.h"
#include "common/status.h"

namespace dcdatalog {
namespace {

// Probe-slot prefetch distance for the pipelined kNone batch merge: far
// enough ahead that the prefetched line arrives from DRAM before the
// compare/insert pass reaches it (~8 merges cover a memory latency at the
// merge path's per-tuple cost), near enough that the line is still resident
// and a mid-batch rehash strands only a few in-flight prefetches.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

RecursiveTable::RecursiveTable(const std::string& name, Schema stored_schema,
                               AggSpec spec, uint32_t partition_col,
                               bool needs_join_index,
                               const EngineOptions& options)
    : spec_(spec),
      partition_col_(partition_col),
      use_join_index_(needs_join_index),
      sum_epsilon_(options.sum_epsilon),
      rows_(name, std::move(stored_schema)),
      exist_set_(&rows_) {}

bool RecursiveTable::BetterValue(uint64_t candidate, uint64_t current) const {
  if (spec_.value_type == ColumnType::kDouble) {
    const double c = DoubleFromWord(candidate);
    const double v = DoubleFromWord(current);
    return spec_.func == AggFunc::kMin ? c < v : c > v;
  }
  const int64_t c = IntFromWord(candidate);
  const int64_t v = IntFromWord(current);
  return spec_.func == AggFunc::kMin ? c < v : c > v;
}

void RecursiveTable::ReserveHint(uint64_t expected_rows) {
  DCD_AFFINITY_GUARD(writer_affinity_);
  if (expected_rows == 0) return;
  rows_.Reserve(expected_rows);
  if (use_join_index_) join_index_.Reserve(expected_rows);
  switch (spec_.func) {
    case AggFunc::kNone:
      exist_set_.Reserve(expected_rows);
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      // Not presized: groups are usually far fewer than driving rows (CC:
      // one per vertex, against two hinted rows per edge), and a 32-byte
      // slot per hinted row costs megabytes of page faults per evaluation.
      break;
    case AggFunc::kCount:
    case AggFunc::kSum:
      // Contributors dominate groups; the hint counts contributions.
      flat_group_.Reserve(expected_rows);
      flat_contrib_.Reserve(expected_rows);
      break;
  }
}

void RecursiveTable::InsertGroup(const U128& group, uint64_t value) {
  bool inserted = false;
  flat_group_.FindOrInsert(group, value, &inserted);
}

uint64_t RecursiveTable::AppendRow(const uint64_t* stored) {
  const uint64_t row_id =
      rows_.Append(TupleRef{stored, spec_.stored_arity});
  DCD_DCHECK(row_id < kRowMask);
  if (use_join_index_) {
    join_index_.Insert(stored[partition_col_]);
  }
  return row_id;
}

void RecursiveTable::PushDelta(uint64_t row_id) {
  ++accepts_;
  if (row_id < change_floor_) changed_rows_.push_back(row_id);
  const uint32_t id = static_cast<uint32_t>(row_id);
  if (batch_mode_) {
    batch_changed_rows_.push_back(id);
    return;
  }
  delta_.push_back(id);
}

bool RecursiveTable::MergeNone(const uint64_t* wire, uint64_t hash) {
  const TupleRef tuple{wire, spec_.stored_arity};
  // Existence check via the flat (hash, row id) set: one linear probe,
  // full-tuple compare only on hash-equal slots.
  const uint64_t found = exist_set_.Find(hash, tuple);
  if (found != FlatTupleSet::kNotFound) return false;
  const uint64_t row_id = AppendRow(wire);
  exist_set_.Insert(hash, row_id, merge_stamp_);
  PushDelta(row_id);
  return true;
}

bool RecursiveTable::MergeMinMax(const uint64_t* wire) {
  const U128 group = GroupKey(wire);
  const uint32_t value_col = spec_.stored_arity - 1;
  const uint64_t candidate = wire[value_col];
  const uint64_t stamp = static_cast<uint64_t>(merge_stamp_) << 32;
  uint64_t* slot = flat_group_.Find(group);
  if (slot == nullptr) {
    const uint64_t row_id = AppendRow(wire);
    InsertGroup(group, row_id | stamp);
    PushDelta(row_id);
    return true;
  }
  const uint64_t row_id = *slot & kRowMask;
  if (!BetterValue(candidate, rows_.Row(row_id)[value_col])) return false;
  rows_.SetWord(row_id, value_col, candidate);
  *slot = row_id | stamp;
  PushDelta(row_id);
  return true;
}

bool RecursiveTable::MergeCount(const uint64_t* wire) {
  // Wire: (group?, contributor); stored: (group?, count).
  const uint64_t group = spec_.group_arity > 0 ? wire[0] : 0;
  const uint64_t contributor = wire[spec_.group_arity];
  const U128 contrib_key{group, contributor};
  bool inserted = false;
  flat_contrib_.FindOrInsert(contrib_key, 1, &inserted);
  if (!inserted) return false;  // Contributor already counted.

  const U128 gkey{group, 0};
  const uint32_t value_col = spec_.stored_arity - 1;
  uint64_t* row_slot = flat_group_.Find(gkey);
  if (row_slot == nullptr) {
    uint64_t stored[kMaxArity];
    stored[0] = group;
    stored[value_col] = WordFromInt(1);
    const uint64_t row_id = AppendRow(stored);
    InsertGroup(gkey, row_id);
    PushDelta(row_id);
    return true;
  }
  const uint64_t row_id = *row_slot;
  const int64_t count = IntFromWord(rows_.Row(row_id)[value_col]) + 1;
  rows_.SetWord(row_id, value_col, WordFromInt(count));
  PushDelta(row_id);
  return true;
}

bool RecursiveTable::MergeSum(const uint64_t* wire) {
  // Wire: (group, contributor, value); stored: (group, sum). The
  // contributor index remembers each contributor's last value so a
  // revised contribution replaces rather than double-counts (§6.2.1).
  const uint64_t group = spec_.group_arity > 0 ? wire[0] : 0;
  const uint64_t contributor = wire[spec_.group_arity];
  const uint64_t value = wire[spec_.group_arity + 1];
  const U128 contrib_key{group, contributor};
  const bool is_double = spec_.value_type == ColumnType::kDouble;

  double delta_d = 0.0;
  int64_t delta_i = 0;
  // One probe both finds and (if absent) inserts the contributor.
  bool first_contribution;
  uint64_t* last =
      flat_contrib_.FindOrInsert(contrib_key, value, &first_contribution);
  if (first_contribution) {
    if (is_double) {
      delta_d = DoubleFromWord(value);
    } else {
      delta_i = IntFromWord(value);
    }
  } else {
    if (is_double) {
      delta_d = DoubleFromWord(value) - DoubleFromWord(*last);
      if (std::fabs(delta_d) <= sum_epsilon_) return false;
    } else {
      delta_i = IntFromWord(value) - IntFromWord(*last);
      if (delta_i == 0) return false;
    }
    *last = value;
  }

  const U128 gkey{group, 0};
  const uint32_t value_col = spec_.stored_arity - 1;
  uint64_t* row_slot = flat_group_.Find(gkey);
  if (row_slot == nullptr) {
    uint64_t stored[kMaxArity];
    stored[0] = group;
    stored[value_col] =
        is_double ? WordFromDouble(delta_d) : WordFromInt(delta_i);
    const uint64_t row_id = AppendRow(stored);
    InsertGroup(gkey, row_id);
    PushDelta(row_id);
    return true;
  }
  const uint64_t row_id = *row_slot;
  const uint64_t current = rows_.Row(row_id)[value_col];
  const uint64_t updated =
      is_double ? WordFromDouble(DoubleFromWord(current) + delta_d)
                : WordFromInt(IntFromWord(current) + delta_i);
  rows_.SetWord(row_id, value_col, updated);
  PushDelta(row_id);
  return true;
}

DCD_HOT_ROOT bool RecursiveTable::MergeWire(const uint64_t* wire) {
  DCD_AFFINITY_GUARD(writer_affinity_);
  ++merges_;
  switch (spec_.func) {
    case AggFunc::kNone:
      return MergeNone(wire, TupleRef{wire, spec_.stored_arity}.Hash());
    case AggFunc::kMin:
    case AggFunc::kMax:
      return MergeMinMax(wire);
    case AggFunc::kCount:
      return MergeCount(wire);
    case AggFunc::kSum:
      return MergeSum(wire);
  }
  return false;
}

void RecursiveTable::RemoveRows(const std::vector<uint64_t>& ids) {
  DCD_AFFINITY_GUARD(writer_affinity_);
  const bool min_max =
      spec_.func == AggFunc::kMin || spec_.func == AggFunc::kMax;
  DCD_CHECK(spec_.func == AggFunc::kNone || min_max)
      << "row removal is only defined for kNone, min and max tables";
  if (ids.empty()) return;
  DCD_DCHECK(!use_join_index_ || join_index_.size() == rows_.size());
  // Highest id first, as Relation::RemoveRows: each index drops the dead
  // row's entry and renames the last row's to the hole, then the row moves.
  for (size_t i = ids.size(); i-- > 0;) {
    const uint64_t dead = ids[i];
    const uint64_t last = rows_.size() - 1;
    const TupleRef dead_row = rows_.Row(dead);
    const TupleRef last_row = rows_.Row(last);
    if (min_max) {
      flat_group_.Erase(GroupKey(dead_row.data));
      if (dead != last) {
        uint64_t* slot = flat_group_.Find(GroupKey(last_row.data));
        *slot = (*slot & ~kRowMask) | dead;
      }
    } else {
      exist_set_.Erase(dead_row.Hash(), dead);
      if (dead != last) exist_set_.Renumber(last_row.Hash(), last, dead);
    }
    if (use_join_index_) join_index_.RemoveRow(dead);
    rows_.RemoveRow(dead);
  }
  // Pending deltas name rows by id, and the fill from the tail renamed
  // some of them.
  delta_.clear();
  batch_changed_rows_.clear();
}

Status RecursiveTable::CheckIndexes() const {
  const uint64_t n = rows_.size();
  const auto fail = [this](const std::string& what) {
    return Status::Internal("partition of '" + rows_.name() + "': " + what);
  };
  if (use_join_index_ && !join_index_.Matches(rows_, partition_col_, n)) {
    return fail("join index differs from a fresh build");
  }
  if (spec_.func == AggFunc::kNone) {
    uint64_t entries = 0;
    bool stray = false;
    exist_set_.ForEachEntry([&](uint64_t hash, uint64_t row) {
      ++entries;
      stray |= row >= n || hash != rows_.Row(row).Hash();
    });
    if (stray || entries != n || exist_set_.size() != n) {
      return fail("existence set names a row it does not hold");
    }
    for (uint64_t r = 0; r < n; ++r) {
      if (FindRowId(rows_.Row(r)) != r) {
        return fail("existence set misses row " + std::to_string(r));
      }
    }
    return Status::OK();
  }
  // Every aggregate keeps one group entry per row; min/max rows carry
  // their stamp in the high word.
  const bool min_max =
      spec_.func == AggFunc::kMin || spec_.func == AggFunc::kMax;
  uint64_t entries = 0;
  bool stray = false;
  flat_group_.ForEachEntry([&](const U128& key, uint64_t value) {
    ++entries;
    const uint64_t row = min_max ? value & kRowMask : value;
    stray |= row >= n || !(GroupKey(rows_.Row(row).data) == key);
  });
  if (stray || entries != n) {
    return fail("group index names a row it does not hold");
  }
  return Status::OK();
}

std::vector<uint64_t> RecursiveTable::TakeChangedRows() {
  std::vector<uint64_t> out = std::move(changed_rows_);
  changed_rows_.clear();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void RecursiveTable::ResetStats() {
  merges_ = 0;
  accepts_ = 0;
  probe_cmps_base_ = exist_set_.probe_cmps() + flat_group_.probe_cmps() +
                     flat_contrib_.probe_cmps();
}

DCD_HOT_ROOT void RecursiveTable::MergeBatch(const uint64_t* words,
                                             size_t count, uint32_t stride) {
  DCD_AFFINITY_GUARD(writer_affinity_);
  if (count == 0) return;
  DCD_DCHECK(stride >= spec_.wire_arity);
  if (spec_.func == AggFunc::kNone) {
    // Plain dedup: every accept is a distinct new row, no amplification.
    // Pipelined probe: hash the whole batch up front, then prefetch each
    // tuple's home slot kPrefetchDistance merges ahead of the
    // compare/insert pass, so the probe's dependent DRAM loads overlap
    // instead of serializing (hash-join probe pipelining). A mid-batch
    // rehash only strands the few in-flight prefetches — later ones use
    // the new mask automatically.
    batch_hashes_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      batch_hashes_[i] =
          TupleRef{words + i * stride, spec_.stored_arity}.Hash();
    }
    for (size_t i = 0; i < count; ++i) {
      if (i + kPrefetchDistance < count) {
        exist_set_.Prefetch(batch_hashes_[i + kPrefetchDistance]);
      }
      ++merges_;
      MergeNone(words + i * stride, batch_hashes_[i]);
    }
    return;
  }
  // Aggregates: collect changed rows across the batch and emit each into
  // the delta exactly once, carrying its final post-batch value.
  batch_mode_ = true;
  batch_changed_rows_.clear();
  for (size_t i = 0; i < count; ++i) MergeWire(words + i * stride);
  batch_mode_ = false;
  std::sort(batch_changed_rows_.begin(), batch_changed_rows_.end());
  batch_changed_rows_.erase(
      std::unique(batch_changed_rows_.begin(), batch_changed_rows_.end()),
      batch_changed_rows_.end());
  delta_.insert(delta_.end(), batch_changed_rows_.begin(),
                batch_changed_rows_.end());
}

}  // namespace dcdatalog
