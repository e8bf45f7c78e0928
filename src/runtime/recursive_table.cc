#include "runtime/recursive_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "common/hot_path.h"
#include "common/logging.h"

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
      use_agg_index_(options.enable_aggregate_index),
      use_cache_(options.enable_existence_cache &&
                 (spec.func == AggFunc::kNone || spec.func == AggFunc::kMin ||
                  spec.func == AggFunc::kMax)),
      sum_epsilon_(options.sum_epsilon),
      rows_(name, std::move(stored_schema)),
      exist_set_(&rows_) {
  if (use_cache_) {
    const uint64_t slots = std::bit_ceil<uint64_t>(
        std::max<uint32_t>(options.existence_cache_slots, 16));
    cache_slots_.assign(slots, 0);
    cache_mask_ = slots - 1;
  }
}

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

void RecursiveTable::InsertGroup(const U128& group, uint64_t row_id) {
  bool inserted = false;
  flat_group_.FindOrInsert(group, row_id, &inserted);
}

uint64_t RecursiveTable::AppendRow(const uint64_t* stored) {
  const uint64_t row_id =
      rows_.Append(TupleRef{stored, spec_.stored_arity});
  if (use_join_index_) {
    join_index_.Insert(stored[partition_col_], row_id);
  }
  return row_id;
}

void RecursiveTable::PushDelta(uint64_t row_id) {
  ++accepts_;
  if (row_id < change_floor_) changed_rows_.push_back(row_id);
  if (batch_mode_) {
    batch_changed_rows_.push_back(row_id);
    return;
  }
  delta_.push_back(TupleBuf(rows_.Row(row_id)));
}

bool RecursiveTable::CacheCheckDuplicate(TupleRef tuple, uint64_t hash) const {
  if (!use_cache_) return false;
  const uint64_t slot = cache_slots_[hash & cache_mask_];
  if (slot == 0) return false;
  return rows_.Row(slot - 1) == tuple;
}

void RecursiveTable::CacheFill(uint64_t hash, uint64_t row_id) {
  if (!use_cache_) return;
  cache_slots_[hash & cache_mask_] = row_id + 1;
}

bool RecursiveTable::MergeNone(const uint64_t* wire, uint64_t hash) {
  const TupleRef tuple{wire, spec_.stored_arity};
  if (CacheCheckDuplicate(tuple, hash)) {
    ++cache_hits_;
    // Support counting must see every arrival, including ones the cache
    // short-circuits — the cache slot already names the row.
    if (maintain_counts_) {
      exist_set_.IncrementCount(cache_slots_[hash & cache_mask_] - 1);
    }
    return false;
  }
  // Existence check via the flat (hash, row id) set: one linear probe,
  // full-tuple compare only on hash-equal slots.
  const uint64_t found = exist_set_.Find(hash, tuple);
  if (found != FlatTupleSet::kNotFound) {
    if (maintain_counts_) exist_set_.IncrementCount(found);
    CacheFill(hash, found);
    return false;
  }
  const uint64_t row_id = AppendRow(wire);
  exist_set_.Insert(hash, row_id);
  if (maintain_counts_) exist_set_.IncrementCount(row_id);
  CacheFill(hash, row_id);
  PushDelta(row_id);
  return true;
}

bool RecursiveTable::MergeMinMax(const uint64_t* wire) {
  const U128 group = GroupKey(wire);
  const uint32_t value_col = spec_.stored_arity - 1;
  const uint64_t candidate = wire[value_col];
  const uint64_t ghash = HashCombine(group.hi, group.lo);

  // Constant-time cache probe: the slot remembers the group's row, whose
  // value is always current because updates happen in place.
  if (use_cache_) {
    const uint64_t slot = cache_slots_[ghash & cache_mask_];
    if (slot != 0) {
      const uint64_t row_id = slot - 1;
      TupleRef row = rows_.Row(row_id);
      if (SameGroup(row.data, wire)) {
        ++cache_hits_;
        if (!BetterValue(candidate, row[value_col])) return false;
        rows_.SetWord(row_id, value_col, candidate);
        PushDelta(row_id);
        return true;
      }
    }
  }

  uint64_t* row_slot = flat_group_.Find(group);
  if (row_slot == nullptr) {
    const uint64_t row_id = AppendRow(wire);
    InsertGroup(group, row_id);
    CacheFill(ghash, row_id);
    PushDelta(row_id);
    return true;
  }
  const uint64_t row_id = *row_slot;
  CacheFill(ghash, row_id);
  if (!BetterValue(candidate, rows_.Row(row_id)[value_col])) return false;
  rows_.SetWord(row_id, value_col, candidate);
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

void RecursiveTable::EnableSupportCounts() {
  DCD_CHECK(spec_.func == AggFunc::kNone)
      << "support counts require a kNone table";
  maintain_counts_ = true;
  exist_set_.EnableCounts();
}

void RecursiveTable::CompactRemoveRows(
    const std::vector<uint64_t>& dead_row_ids) {
  DCD_AFFINITY_GUARD(writer_affinity_);
  DCD_CHECK(spec_.func == AggFunc::kNone)
      << "compaction is only defined for kNone tables";
  if (dead_row_ids.empty()) return;
  const uint64_t n = rows_.size();

  // Rebuild row storage keeping survivor order; carry counts by new row id.
  Relation survivors(rows_.name(), rows_.schema());
  survivors.Reserve(n - dead_row_ids.size());
  std::vector<uint64_t> survivor_counts;
  if (maintain_counts_) survivor_counts.reserve(n - dead_row_ids.size());
  size_t d = 0;
  for (uint64_t r = 0; r < n; ++r) {
    if (d < dead_row_ids.size() && dead_row_ids[d] == r) {
      ++d;
      continue;
    }
    survivors.Append(rows_.Row(r));
    if (maintain_counts_) survivor_counts.push_back(exist_set_.CountOf(r));
  }
  rows_ = std::move(survivors);  // exist_set_ backs onto &rows_: unchanged.

  // Rebuild the existence set over the new row ids.
  exist_set_ = FlatTupleSet(&rows_);
  if (maintain_counts_) exist_set_.EnableCounts();
  const uint64_t survivors_n = rows_.size();
  exist_set_.Reserve(survivors_n);
  for (uint64_t r = 0; r < survivors_n; ++r) {
    exist_set_.Insert(rows_.Row(r).Hash(), r);
    if (maintain_counts_) exist_set_.SetCount(r, survivor_counts[r]);
  }

  join_index_ = DynIndex();
  if (use_join_index_) {
    join_index_.Reserve(survivors_n);
    for (uint64_t r = 0; r < survivors_n; ++r) {
      join_index_.Insert(rows_.Row(r)[partition_col_], r);
    }
  }

  // Cached row ids and pending deltas are stale after renumbering.
  if (use_cache_) std::fill(cache_slots_.begin(), cache_slots_.end(), 0);
  delta_.clear();
  batch_changed_rows_.clear();
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
  cache_hits_ = 0;
  probe_cmps_base_ = exist_set_.probe_cmps() + flat_group_.probe_cmps() +
                     flat_contrib_.probe_cmps();
}

void RecursiveTable::MergeMinMaxBatchByScan(const uint64_t* words,
                                            size_t count, uint32_t stride) {
  // Unoptimized baseline (Table 4 ablation, "w/o"): reduce the batch to its
  // best value per group, then find existing groups with one linear scan of
  // the stored rows instead of index lookups.
  struct PendingBest {
    uint64_t value;
    const uint64_t* wire;
    bool matched = false;
  };
  std::unordered_map<uint64_t, PendingBest> best;  // keyed by group hash
  best.reserve(count);
  const uint32_t value_col = spec_.stored_arity - 1;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t* w = words + i * stride;
    ++merges_;
    const U128 g = GroupKey(w);
    const uint64_t gh = HashCombine(g.hi, g.lo);
    auto [it, inserted] = best.try_emplace(gh, PendingBest{w[value_col], w});
    if (!inserted && BetterValue(w[value_col], it->second.value)) {
      it->second.value = w[value_col];
      it->second.wire = w;
    }
  }
  // One pass over all stored rows: update groups present in the batch.
  const uint64_t n = rows_.size();
  for (uint64_t r = 0; r < n; ++r) {
    TupleRef row = rows_.Row(r);
    const U128 g = GroupKey(row.data);
    const uint64_t gh = HashCombine(g.hi, g.lo);
    auto it = best.find(gh);
    if (it == best.end()) continue;
    // Hash match — confirm the group columns really match.
    if (!SameGroup(row.data, it->second.wire)) continue;
    it->second.matched = true;
    if (BetterValue(it->second.value, row[value_col])) {
      rows_.SetWord(r, value_col, it->second.value);
      PushDelta(r);
    }
  }
  // Remaining groups are new.
  for (auto& [gh, pending] : best) {
    if (pending.matched) continue;
    uint64_t stored[kMaxArity];
    for (uint32_t c = 0; c < spec_.stored_arity; ++c) {
      stored[c] = pending.wire[c];
    }
    stored[value_col] = pending.value;
    const uint64_t row_id = AppendRow(stored);
    // Keep the group index coherent, so a later indexed merge (or cache
    // miss fallback) still finds this group.
    InsertGroup(GroupKey(stored), row_id);
    PushDelta(row_id);
  }
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
  if (!use_agg_index_ &&
      (spec_.func == AggFunc::kMin || spec_.func == AggFunc::kMax)) {
    MergeMinMaxBatchByScan(words, count, stride);
  } else {
    for (size_t i = 0; i < count; ++i) MergeWire(words + i * stride);
  }
  batch_mode_ = false;
  std::sort(batch_changed_rows_.begin(), batch_changed_rows_.end());
  batch_changed_rows_.erase(
      std::unique(batch_changed_rows_.begin(), batch_changed_rows_.end()),
      batch_changed_rows_.end());
  for (uint64_t row_id : batch_changed_rows_) {
    delta_.push_back(TupleBuf(rows_.Row(row_id)));
  }
}

}  // namespace dcdatalog
