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
      use_flat_(options.merge_index_backend == MergeIndexBackend::kFlat),
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
  if (!use_flat_) return;
  switch (spec_.func) {
    case AggFunc::kNone:
      exist_set_.Reserve(expected_rows);
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      flat_group_.Reserve(expected_rows);
      break;
    case AggFunc::kCount:
    case AggFunc::kSum:
      // Contributors dominate groups; the hint counts contributions.
      flat_group_.Reserve(expected_rows);
      flat_contrib_.Reserve(expected_rows);
      break;
  }
}

uint64_t* RecursiveTable::FindGroup(const U128& group) {
  return use_flat_ ? flat_group_.Find(group) : group_index_.FindFirst(group);
}

void RecursiveTable::InsertGroup(const U128& group, uint64_t row_id) {
  if (use_flat_) {
    bool inserted = false;
    flat_group_.FindOrInsert(group, row_id, &inserted);
  } else {
    DCD_COLD_CALL("B+-tree group index is the non-default ablation backend; flat is hot");
    group_index_.Insert(group, row_id);
  }
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
  if (use_flat_) {
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
  // Existence check via the B+-tree keyed (hash, row id); compare rows to
  // rule out hash collisions.
  for (auto it = group_index_.LowerBound(U128{hash, 0});
       !it.AtEnd() && it.key().hi == hash; ++it) {
    ++probe_cmps_;
    if (rows_.Row(it.value()) == tuple) {
      CacheFill(hash, it.value());
      return false;
    }
  }
  const uint64_t row_id = AppendRow(wire);
  DCD_COLD_CALL("B+-tree dedup index is the non-default ablation backend; flat is hot");
  group_index_.Insert(U128{hash, row_id}, row_id);
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
      const bool group_match =
          row[0] == wire[0] &&
          (spec_.group_arity < 2 || row[1] == wire[1]);
      if (group_match) {
        ++cache_hits_;
        if (!BetterValue(candidate, row[value_col])) return false;
        rows_.SetWord(row_id, value_col, candidate);
        PushDelta(row_id);
        return true;
      }
    }
  }

  uint64_t* row_slot = FindGroup(group);
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
  if (use_flat_) {
    bool inserted = false;
    flat_contrib_.FindOrInsert(contrib_key, 1, &inserted);
    if (!inserted) return false;  // Contributor already counted.
  } else {
    if (contrib_index_.FindFirst(contrib_key) != nullptr) return false;
    DCD_COLD_CALL("B+-tree contributor index is the non-default ablation backend");
    contrib_index_.Insert(contrib_key, 1);
  }

  const U128 gkey{group, 0};
  const uint32_t value_col = spec_.stored_arity - 1;
  uint64_t* row_slot = FindGroup(gkey);
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
  uint64_t* last = nullptr;
  bool first_contribution;
  if (use_flat_) {
    // One probe both finds and (if absent) inserts the contributor.
    last = flat_contrib_.FindOrInsert(contrib_key, value, &first_contribution);
  } else {
    last = contrib_index_.FindFirst(contrib_key);
    first_contribution = last == nullptr;
    DCD_COLD_CALL("B+-tree contributor index is the non-default ablation backend");
    if (first_contribution) contrib_index_.Insert(contrib_key, value);
  }
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
  uint64_t* row_slot = FindGroup(gkey);
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
  DCD_CHECK(spec_.func == AggFunc::kNone && use_flat_)
      << "support counts require a kNone flat-backend table";
  maintain_counts_ = true;
  exist_set_.EnableCounts();
}

uint64_t RecursiveTable::FindRowId(TupleRef tuple, uint64_t hash) const {
  if (use_flat_) return exist_set_.Find(hash, tuple);
  for (auto it = group_index_.LowerBound(U128{hash, 0});
       !it.AtEnd() && it.key().hi == hash; ++it) {
    if (rows_.Row(it.value()) == tuple) return it.value();
  }
  return UINT64_MAX;
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

  // Rebuild whichever existence index is active over the new row ids.
  exist_set_ = FlatTupleSet(&rows_);
  if (maintain_counts_) exist_set_.EnableCounts();
  const uint64_t survivors_n = rows_.size();
  if (use_flat_) {
    exist_set_.Reserve(survivors_n);
    for (uint64_t r = 0; r < survivors_n; ++r) {
      exist_set_.Insert(rows_.Row(r).Hash(), r);
      if (maintain_counts_) exist_set_.SetCount(r, survivor_counts[r]);
    }
  } else {
    group_index_ = BPlusTree<U128, uint64_t>();
    for (uint64_t r = 0; r < survivors_n; ++r) {
      group_index_.Insert(U128{rows_.Row(r).Hash(), r}, r);
    }
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

void RecursiveTable::ResetStats() {
  merges_ = 0;
  accepts_ = 0;
  cache_hits_ = 0;
  probe_cmps_ = 0;
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
    const uint64_t* wire = it->second.wire;
    if (row[0] != wire[0] ||
        (spec_.group_arity > 1 && row[1] != wire[1])) {
      continue;
    }
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
    // Keep whichever backend's group index is active coherent, so a later
    // indexed merge (or cache miss fallback) still finds this group.
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
      if (use_flat_ && i + kPrefetchDistance < count) {
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
