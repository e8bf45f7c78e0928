#include "core/delete.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>

#include "common/chaos.h"
#include "common/hash.h"
#include "common/logging.h"

namespace dcdatalog {
namespace {

/// One fact of the SCC, a set row or a min/max group: a canonical replica
/// partition (pred id * n + worker) and the fact's row id in it.
struct FactRef {
  uint32_t part = 0;
  uint32_t row = 0;
};

/// A fact awaiting its check, ordered by its stamp.
struct Candidate {
  uint32_t stamp = 0;
  FactRef fact;
  bool operator>(const Candidate& o) const { return stamp > o.stamp; }
};

constexpr uint8_t kQueued = 1;   // Entered the candidate heap once.
constexpr uint8_t kInvalid = 2;  // Invalidated.

/// What the shards of one delete share: the input and the guard.
struct Shared {
  const DeleteInput& in;
  uint32_t num_shards = 1;
  uint64_t total_rows = 0;               // |I|.
  std::atomic<uint64_t> num_invalid{0};  // Over every shard.

  /// The guard: once more is invalidated than survives, recomputing the
  /// SCC costs less than checking on.
  bool Tripped() const {
    return 2 * num_invalid.load(std::memory_order_relaxed) > total_rows;
  }
};

/// One shard of a delete: the facts whose shard column hashes to it.
class Shard {
 public:
  Shard(Shared& shared, uint32_t shard)
      : shared_(shared),
        in_(shared.in),
        scc_(*in_.scc),
        n_(in_.num_workers),
        shard_(shard),
        // The planner admits a delete into an aggregate SCC only when
        // every predicate is min/max with one replica.
        aggregate_((*in_.tables)[0][0]->agg_spec().func != AggFunc::kNone),
        rules_(in_) {
    const size_t num_preds = scc_.derived_preds.size();
    replicas_.resize(num_preds);
    state_.resize(num_preds * n_);
    for (size_t p = 0; p < num_preds; ++p) {
      replicas_[p] = scc_.ReplicasOf(scc_.derived_preds[p]);
      for (uint32_t w = 0; w < n_; ++w) {
        state_[p * n_ + w].assign(Table(p * n_ + w).rows().size(), 0);
      }
    }
  }

  /// Runs the shard to its end, or until the guard trips in any shard:
  /// fills `out` with its invalidated facts (unsorted), their reseed rows
  /// and its candidate count.
  void Run(DeleteResult* out) {
    const size_t num_preds = scc_.derived_preds.size();
    out->invalidated.assign(num_preds, std::vector<std::vector<uint64_t>>(n_));
    out->reseed.assign(num_preds, {});
    rules_.DriveRemoved(BatchEmitSink{&HeadThunk, this});
    std::vector<FactRef> invalidated;
    while (!heap_.empty()) {
      DCD_CHAOS_POINT(kDelete);
      if (shared_.Tripped()) return;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const FactRef f = heap_.back().fact;
      heap_.pop_back();
      ++out->checked;
      if (Supported(f)) continue;
      State(f) |= kInvalid;
      invalidated.push_back(f);
      shared_.num_invalid.fetch_add(1, std::memory_order_relaxed);
      if (shared_.Tripped()) return;
      Forward(f);
    }
    // The shard's invalid set is final: reseed from the survivors.
    for (const FactRef f : invalidated) {
      out->invalidated[f.part / n_][f.part % n_].push_back(f.row);
      Reseed(f, &out->reseed[f.part / n_]);
    }
  }

  /// Checks every fact, nothing invalidated: the stamp invariant.
  Status CheckAll() {
    for (uint32_t part = 0; part < state_.size(); ++part) {
      for (uint32_t row = 0; row < state_[part].size(); ++row) {
        const FactRef f{part, row};
        if (Supported(f)) continue;
        std::string words;
        const TupleRef tuple = Tuple(f);
        for (uint32_t c = 0; c < tuple.arity; ++c) {
          words += (c > 0 ? " " : "") + std::to_string(tuple[c]);
        }
        return Status::Internal(
            "row (" + words + ") of '" + scc_.derived_preds[part / n_] +
            "' (stamp " + std::to_string(Stamp(f)) +
            ") has no lower-stamped instance" +
            (aggregate_ ? " yielding its value" : ""));
      }
    }
    return Status::OK();
  }

 private:
  /// InstanceThunk's emission context: the check version running.
  struct RuleEmit {
    Shard* self;
    const PhysicalRule* rule;
  };

  /// Partition `part`'s table in its predicate's canonical replica.
  const RecursiveTable& Table(size_t part) const {
    return *(*in_.tables)[part % n_][replicas_[part / n_].front()];
  }
  TupleRef Tuple(FactRef f) const { return Table(f.part).rows().Row(f.row); }
  uint64_t Value(FactRef f) const {
    const TupleRef t = Tuple(f);
    return t[t.arity - 1];
  }
  uint8_t& State(FactRef f) { return state_[f.part][f.row]; }

  /// The worker whose partition of `replica` holds `tuple`.
  uint32_t WorkerOf(int replica, const uint64_t* tuple) const {
    return scc_.replicas[replica].WorkerOf(tuple, n_);
  }

  /// A fact's stamp: the lowest over its copies, one per replica.
  uint32_t Stamp(FactRef f) const {
    uint32_t stamp = Table(f.part).stamp(f.row);
    const std::vector<int>& reps = replicas_[f.part / n_];
    if (reps.size() == 1) return stamp;
    const TupleRef tuple = Tuple(f);
    const uint64_t hash = tuple.Hash();
    for (size_t k = 1; k < reps.size(); ++k) {
      const RecursiveTable& table =
          *(*in_.tables)[WorkerOf(reps[k], tuple.data)][reps[k]];
      const uint64_t row = table.FindRowId(tuple, hash);
      // Every replica holds every fact of I.
      DCD_DCHECK(row != UINT64_MAX);
      if (row != UINT64_MAX) stamp = std::min(stamp, table.stamp(row));
    }
    return stamp;
  }

  /// True when this shard owns the facts agreeing with `tuple` on the
  /// shard column.
  bool Owns(const uint64_t* tuple) const {
    return shared_.num_shards == 1 ||
           PartitionOf(tuple[scc_.shard_col], shared_.num_shards) == shard_;
  }

  /// The fact `tuple` of SCC predicate `pred_id` (a min/max group: keyed
  /// by its leading group columns); false when I lacks it.
  bool Locate(int pred_id, const uint64_t* tuple, FactRef* out) const {
    const uint32_t part = static_cast<uint32_t>(pred_id) * n_ +
                          WorkerOf(replicas_[pred_id].front(), tuple);
    const RecursiveTable& table = Table(part);
    const uint64_t row =
        aggregate_ ? table.FindGroupRow(tuple)
                   : table.FindRowId(TupleRef{tuple, table.stored_arity()});
    if (row == UINT64_MAX) return false;
    *out = FactRef{part, static_cast<uint32_t>(row)};
    return true;
  }

  /// Queues the heads of a batch of forward instances: a fact stamped at
  /// least min_stamp_ (a min/max group only when the instance yielded its
  /// best value).
  static void HeadThunk(void* c, const HeadSpec& head, const uint64_t* wires,
                        uint32_t count, uint32_t wire_arity) {
    auto* self = static_cast<Shard*>(c);
    const uint32_t value_col = head.agg.stored_arity - 1;
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t* wire = wires + static_cast<size_t>(i) * wire_arity;
      // Every shard drives every removed row and keeps the heads it owns;
      // Forward's heads are always its own.
      if (!self->Owns(wire)) continue;
      FactRef h;
      // Forward instances lie in the pre-batch fixpoint, so I holds their
      // heads.
      const bool found = self->Locate(head.pred_id, wire, &h);
      DCD_DCHECK(found);
      if (!found || (self->State(h) & (kQueued | kInvalid)) != 0 ||
          (self->aggregate_ && wire[value_col] != self->Value(h))) {
        continue;
      }
      const uint32_t stamp = self->Stamp(h);
      if (stamp < self->min_stamp_) continue;
      self->State(h) |= kQueued;
      self->heap_.push_back(Candidate{stamp, h});
      std::push_heap(self->heap_.begin(), self->heap_.end(), std::greater<>());
    }
  }

  /// Takes a batch of instances deriving the target, each packed as its
  /// same-SCC facts back to back (a min/max fact as its group columns), or
  /// under a min/max head with none, as the value it yields; hands each
  /// one whose facts survive to Yield.
  static void InstanceThunk(void* c, const HeadSpec& head,
                            const uint64_t* wires, uint32_t count,
                            uint32_t wire_arity) {
    (void)head;
    auto* e = static_cast<RuleEmit*>(c);
    Shard* self = e->self;
    const std::vector<CheckAtom>& atoms = e->rule->check_atoms;
    // The planner admits at most two same-SCC goals per rule, and one
    // under a min/max head.
    DCD_DCHECK(atoms.size() <= (self->aggregate_ ? 1u : 2u));
    for (uint32_t i = 0; i < count && !self->settled_; ++i) {
      // A set instance without same-SCC facts packs no words.
      const uint64_t* wire = wires + static_cast<size_t>(i) * wire_arity;
      uint64_t value = wire_arity > 0 ? wire[0] : 0;
      bool lower = true;
      bool survives = true;
      const uint64_t* tuple = wire;
      for (const CheckAtom& atom : atoms) {
        FactRef f;
        if (!self->Locate(atom.pred_id, tuple, &f) ||
            (self->State(f) & kInvalid) != 0) {
          survives = false;
          break;
        }
        value = self->Value(f);
        lower = lower && (self->reseeding_ ||
                          self->Stamp(f) < self->target_stamp_);
        tuple += atom.width;
      }
      if (survives) self->Yield(value, lower);
    }
  }

  /// One instance of the target survives and yields `value` (min/max);
  /// `lower` tells whether its same-SCC facts are all stamped below the
  /// target. Sets settled_ once the target's question is answered.
  void Yield(uint64_t value, bool lower) {
    if (!reseeding_) {
      settled_ = lower && (!aggregate_ || value == target_value_);
      return;
    }
    if (!has_fold_ || (aggregate_ && Table(target_.part).BetterValue(
                                         value, fold_))) {
      fold_ = value;
      has_fold_ = true;
    }
    // A set fact needs one instance; a group folds them all.
    settled_ = !aggregate_;
  }

  /// Runs the check versions of `f`'s predicate over `f`, until settled.
  void RunChecks(FactRef f, bool reseeding) {
    target_ = f;
    target_stamp_ = reseeding ? 0 : Stamp(f);
    target_value_ = Value(f);
    reseeding_ = reseeding;
    settled_ = false;
    has_fold_ = false;
    const TupleRef tuple = Tuple(f);
    for (size_t c : rules_.ChecksOf(static_cast<int>(f.part / n_))) {
      if (settled_) break;
      RuleEmit e{this, &scc_.check_rules[c]};
      rules_.RunCheck(c, tuple, BatchEmitSink{&InstanceThunk, &e});
    }
  }

  /// True when an instance over I minus the invalidated facts derives `f`
  /// from lower-stamped facts (for a group: yields its best value).
  bool Supported(FactRef f) {
    RunChecks(f, /*reseeding=*/false);
    return settled_;
  }

  /// Appends `f`'s reseed row to `out`: the fact itself when an instance
  /// over the survivors derives it, whatever their stamps; for a group,
  /// its group columns and the best value those instances yield. Nothing
  /// when none does.
  void Reseed(FactRef f, std::vector<uint64_t>* out) {
    RunChecks(f, /*reseeding=*/true);
    if (!has_fold_) return;
    const TupleRef tuple = Tuple(f);
    out->insert(out->end(), tuple.data,
                tuple.data + tuple.arity - (aggregate_ ? 1 : 0));
    if (aggregate_) out->push_back(fold_);
  }

  /// Forward from an invalidated fact: the facts its delta versions derive
  /// become candidates when stamped above it. Other same-SCC facts come
  /// from I; an instance that also holds a removed row was named by
  /// DriveRemoved.
  void Forward(FactRef f) {
    min_stamp_ = static_cast<uint64_t>(Stamp(f)) + 1;
    rules_.Forward(static_cast<int>(f.part / n_), Tuple(f),
                   BatchEmitSink{&HeadThunk, this});
  }

  Shared& shared_;
  const DeleteInput& in_;
  const SccPlan& scc_;
  const uint32_t n_;  // Partitions per predicate.
  const uint32_t shard_;
  const bool aggregate_;                     // A min/max SCC.
  std::vector<std::vector<int>> replicas_;   // By pred id; canonical first.
  std::vector<std::vector<uint8_t>> state_;  // By part, indexed by row.

  DeleteRules rules_;

  std::vector<Candidate> heap_;  // Min-heap on stamp.
  uint64_t min_stamp_ = 0;       // HeadThunk's stamp floor.

  // The fact whose instances the check versions enumerate, and what they
  // found.
  FactRef target_;
  uint32_t target_stamp_ = 0;
  uint64_t target_value_ = 0;
  bool reseeding_ = false;
  bool settled_ = false;
  bool has_fold_ = false;
  uint64_t fold_ = 0;
};

}  // namespace

DeleteRules::DeleteRules(const DeleteInput& in) : in_(in) {
  const SccPlan& scc = *in_.scc;
  const auto prepare = [&](const PhysicalRule& rule,
                           const BaseIndexSet* indexes) {
    PipelineContext ctx;
    ctx.catalog = in_.catalog;
    ctx.base_indexes = indexes;
    ctx.replicas = &(*in_.tables)[0];
    PreparePipeline(rule, &ctx);
    return ctx;
  };
  check_by_pred_.resize(scc.derived_preds.size());
  for (const PhysicalRule& rule : scc.check_rules) {
    check_by_pred_[rule.head.pred_id].push_back(check_ctx_.size());
    check_ctx_.push_back(prepare(rule, in_.indexes));
  }
  delta_by_pred_.resize(scc.derived_preds.size());
  for (const PhysicalRule& rule : scc.delta_rules) {
    const std::string& pred = scc.replicas[rule.driving_replica].predicate;
    delta_by_pred_[scc.PredIdOf(pred)].push_back(delta_ctx_.size());
    delta_ctx_.push_back(prepare(rule, in_.indexes));
  }
  for (const PhysicalRule& rule : scc.update_rules) {
    PipelineContext ctx = prepare(rule, in_.old_indexes);
    // Scan steps read the pre-batch copy of a relation that lost rows.
    for (size_t i = 0; i < ctx.scan_rels.size(); ++i) {
      auto it = in_.old_relations->find(rule.steps[i].relation);
      if (ctx.scan_rels[i] != nullptr && it != in_.old_relations->end()) {
        ctx.scan_rels[i] = &it->second;
      }
    }
    update_ctx_.push_back(std::move(ctx));
  }
}

void DeleteRules::RunOne(const PhysicalRule& rule, const PipelineContext& ctx,
                         TupleRef row, BatchEmitSink emit) {
  runner_.Begin(rule, &ctx, emit);
  runner_.Push(row);
  runner_.Finish();
}

void DeleteRules::DriveRemoved(BatchEmitSink emit) {
  constexpr uint32_t kNoPartition = UINT32_MAX;
  const SccPlan& scc = *in_.scc;
  for (size_t u = 0; u < scc.update_rules.size(); ++u) {
    const PhysicalRule& rule = scc.update_rules[u];
    auto it = in_.removed->find(rule.driving_relation);
    if (it == in_.removed->end()) continue;
    PipelineContext& ctx = update_ctx_[u];
    const Relation& rows = it->second;
    const int col = rule.update_partition_col;
    uint32_t open = kNoPartition;
    for (uint64_t r = 0; r < rows.size(); ++r) {
      const TupleRef row = rows.Row(r);
      const uint32_t w = col >= 0 ? PartitionOf(row[col], in_.num_workers) : 0;
      if (w != open) {
        if (open != kNoPartition) runner_.Finish();
        ctx.replicas = &(*in_.tables)[w];
        runner_.Begin(rule, &ctx, emit);
        open = w;
      }
      runner_.Push(row);
    }
    if (open != kNoPartition) runner_.Finish();
  }
}

void DeleteRules::Forward(int pred_id, TupleRef tuple, BatchEmitSink emit) {
  const SccPlan& scc = *in_.scc;
  for (size_t d : delta_by_pred_[pred_id]) {
    const PhysicalRule& rule = scc.delta_rules[d];
    const uint32_t w = scc.replicas[rule.driving_replica].WorkerOf(
        tuple.data, in_.num_workers);
    PipelineContext& ctx = delta_ctx_[d];
    ctx.replicas = &(*in_.tables)[w];
    RunOne(rule, ctx, tuple, emit);
  }
}

void DeleteRules::RunCheck(size_t c, TupleRef tuple, BatchEmitSink emit) {
  RunOne(in_.scc->check_rules[c], check_ctx_[c], tuple, emit);
}


DeleteResult RunDelete(const DeleteInput& in) {
  const SccPlan& scc = *in.scc;
  Shared shared{in};
  if (scc.shard_col >= 0) shared.num_shards = in.num_workers;
  for (const std::string& pred : scc.derived_preds) {
    const int canonical = scc.ReplicasOf(pred).front();
    for (const auto& replicas : *in.tables) {
      const uint64_t rows = replicas[canonical]->rows().size();
      DCD_CHECK(rows < UINT32_MAX);
      shared.total_rows += rows;
    }
  }
  std::vector<DeleteResult> shards(shared.num_shards);
  const auto run = [&](uint32_t s) { Shard(shared, s).Run(&shards[s]); };
  if (shared.num_shards == 1) {
    run(0);
  } else {
    in.run_gang(shared.num_shards, run);
  }

  DeleteResult result = std::move(shards[0]);
  result.completed = !shared.Tripped();
  for (uint32_t s = 1; s < shared.num_shards; ++s) {
    result.checked += shards[s].checked;
    for (size_t p = 0; p < result.invalidated.size(); ++p) {
      for (uint32_t w = 0; w < in.num_workers; ++w) {
        std::vector<uint64_t>& rows = result.invalidated[p][w];
        const std::vector<uint64_t>& more = shards[s].invalidated[p][w];
        rows.insert(rows.end(), more.begin(), more.end());
      }
      const std::vector<uint64_t>& more = shards[s].reseed[p];
      result.reseed[p].insert(result.reseed[p].end(), more.begin(),
                              more.end());
    }
  }
  for (auto& per_worker : result.invalidated) {
    for (auto& rows : per_worker) std::sort(rows.begin(), rows.end());
  }
  return result;
}

Status CheckStampInvariant(const DeleteInput& in) {
  Shared shared{in};
  return Shard(shared, 0).CheckAll();
}

}  // namespace dcdatalog
