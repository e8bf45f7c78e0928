#include "core/aggregate_delete.h"

#include <algorithm>
#include <functional>
#include <string>

#include "common/chaos.h"
#include "common/hash.h"
#include "common/logging.h"

namespace dcdatalog {
namespace {

/// One group of the SCC: a canonical replica partition (pred id * n +
/// worker) and the group's row id in it.
struct GroupRef {
  uint32_t part = 0;
  uint32_t row = 0;
};

/// A group awaiting its check, ordered by its stamp.
struct Candidate {
  uint32_t stamp = 0;
  GroupRef group;
  bool operator>(const Candidate& o) const { return stamp > o.stamp; }
};

constexpr uint8_t kQueued = 1;   // Entered the candidate heap once.
constexpr uint8_t kInvalid = 2;  // Invalidated.

class AggregateDelete {
 public:
  explicit AggregateDelete(const BackwardForwardInput& in)
      : in_(in), scc_(*in.scc), n_(in.num_workers), rules_(in) {
    const size_t num_preds = scc_.derived_preds.size();
    canonical_.resize(num_preds);
    state_.resize(num_preds * n_);
    for (size_t p = 0; p < num_preds; ++p) {
      canonical_[p] = scc_.ReplicasOf(scc_.derived_preds[p]).front();
      for (uint32_t w = 0; w < n_; ++w) {
        const uint64_t rows = Table(p * n_ + w).rows().size();
        DCD_CHECK(rows < UINT32_MAX);
        total_rows_ += rows;
        state_[p * n_ + w].assign(rows, 0);
      }
    }
  }

  AggregateDeleteResult Run() {
    AggregateDeleteResult out;
    const size_t num_preds = scc_.derived_preds.size();
    out.invalidated.assign(num_preds, std::vector<std::vector<uint64_t>>(n_));
    out.reseed.assign(num_preds, std::vector<std::vector<uint64_t>>(n_));
    rules_.DriveRemoved(BatchEmitSink{&HeadThunk, this});
    std::vector<GroupRef> invalidated;
    while (!heap_.empty()) {
      DCD_CHAOS_POINT(kAggregateDelete);
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const GroupRef g = heap_.back().group;
      heap_.pop_back();
      ++out.checked;
      if (Supported(g)) continue;
      State(g) |= kInvalid;
      invalidated.push_back(g);
      if (2 * invalidated.size() > total_rows_) {
        out.completed = false;
        return out;
      }
      Forward(g);
    }
    for (const GroupRef g : invalidated) {
      out.invalidated[g.part / n_][g.part % n_].push_back(g.row);
      Fold(g, &out.reseed[g.part / n_][g.part % n_]);
    }
    for (auto& per_worker : out.invalidated) {
      for (auto& rows : per_worker) std::sort(rows.begin(), rows.end());
    }
    return out;
  }

  /// Checks every group, nothing invalidated: the stamp invariant.
  Status CheckAll() {
    for (uint32_t part = 0; part < state_.size(); ++part) {
      for (uint32_t row = 0; row < state_[part].size(); ++row) {
        const GroupRef g{part, row};
        if (Supported(g)) continue;
        std::string words;
        const TupleRef tuple = Tuple(g);
        for (uint32_t c = 0; c < tuple.arity; ++c) {
          words += (c > 0 ? " " : "") + std::to_string(tuple[c]);
        }
        return Status::Internal(
            "row (" + words + ") of '" + scc_.derived_preds[part / n_] +
            "' (stamp " + std::to_string(Stamp(g)) +
            ") has no lower-stamped instance yielding its value");
      }
    }
    return Status::OK();
  }

 private:
  /// InstanceThunk's emission context: the check version running.
  struct RuleEmit {
    AggregateDelete* self;
    const PhysicalRule* rule;
  };

  const RecursiveTable& Table(size_t part) const {
    return *(*in_.tables)[part % n_][canonical_[part / n_]];
  }
  TupleRef Tuple(GroupRef g) const { return Table(g.part).rows().Row(g.row); }
  uint64_t Value(GroupRef g) const {
    const TupleRef t = Tuple(g);
    return t[t.arity - 1];
  }
  uint32_t Stamp(GroupRef g) const { return Table(g.part).stamp(g.row); }
  uint8_t& State(GroupRef g) { return state_[g.part][g.row]; }

  /// The group of SCC predicate `pred_id` keyed by `tuple`'s leading
  /// group columns; false when I lacks it.
  bool Locate(int pred_id, const uint64_t* tuple, GroupRef* out) const {
    const ReplicaSpec& spec = scc_.replicas[canonical_[pred_id]];
    const uint32_t w = spec.partition_constant
                           ? 0
                           : PartitionOf(tuple[spec.partition_col], n_);
    const uint32_t part = static_cast<uint32_t>(pred_id) * n_ + w;
    const uint64_t row = Table(part).FindGroupRow(tuple);
    if (row == UINT64_MAX) return false;
    *out = GroupRef{part, static_cast<uint32_t>(row)};
    return true;
  }

  /// Queues the heads of a batch of forward instances: a group whose best
  /// value the instance yielded, stamped at least min_stamp_.
  static void HeadThunk(void* c, const HeadSpec& head, const uint64_t* wires,
                        uint32_t count, uint32_t wire_arity) {
    auto* self = static_cast<AggregateDelete*>(c);
    const uint32_t value_col = head.agg.stored_arity - 1;
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t* wire = wires + static_cast<size_t>(i) * wire_arity;
      GroupRef h;
      // Forward instances lie in the pre-batch fixpoint, so I holds their
      // groups.
      const bool found = self->Locate(head.pred_id, wire, &h);
      DCD_DCHECK(found);
      if (!found || (self->State(h) & (kQueued | kInvalid)) != 0 ||
          wire[value_col] != self->Value(h) ||
          self->Stamp(h) < self->min_stamp_) {
        continue;
      }
      self->State(h) |= kQueued;
      self->heap_.push_back(Candidate{self->Stamp(h), h});
      std::push_heap(self->heap_.begin(), self->heap_.end(), std::greater<>());
    }
  }

  /// Takes a batch of instances deriving the target group, each packed as
  /// its same-SCC group key, or as its value when it has none, and hands
  /// each surviving one's value to Yield.
  static void InstanceThunk(void* c, const HeadSpec& head,
                            const uint64_t* wires, uint32_t count,
                            uint32_t wire_arity) {
    (void)head;
    auto* e = static_cast<RuleEmit*>(c);
    AggregateDelete* self = e->self;
    const std::vector<CheckAtom>& atoms = e->rule->check_atoms;
    // The planner admits at most one same-SCC goal under a min/max head.
    DCD_DCHECK(atoms.size() <= 1);
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t* wire = wires + static_cast<size_t>(i) * wire_arity;
      if (atoms.empty()) {
        self->Yield(wire[0], /*lower=*/true);
        continue;
      }
      GroupRef src;
      if (!self->Locate(atoms[0].pred_id, wire, &src) ||
          (self->State(src) & kInvalid) != 0) {
        continue;
      }
      self->Yield(self->Value(src), self->Stamp(src) < self->target_stamp_);
    }
  }

  /// One surviving instance of the target yields `value`; `lower` tells
  /// whether its same-SCC group (if any) is stamped below the target.
  void Yield(uint64_t value, bool lower) {
    if (folding_) {
      if (!has_fold_ || Table(target_.part).BetterValue(value, fold_)) {
        fold_ = value;
        has_fold_ = true;
      }
    } else if (lower && value == target_best_) {
      supported_ = true;
    }
  }

  /// Runs the check versions of `g`'s predicate over `g`.
  void RunChecks(GroupRef g) {
    target_ = g;
    target_stamp_ = Stamp(g);
    target_best_ = Value(g);
    const TupleRef tuple = Tuple(g);
    for (size_t c : rules_.ChecksOf(static_cast<int>(g.part / n_))) {
      RuleEmit e{this, &scc_.check_rules[c]};
      rules_.RunCheck(c, tuple, BatchEmitSink{&InstanceThunk, &e});
    }
  }

  /// True when an instance over I minus the invalidated groups yields
  /// `g`'s best value from a lower-stamped group, or from none.
  bool Supported(GroupRef g) {
    folding_ = false;
    supported_ = false;
    RunChecks(g);
    return supported_;
  }

  /// Appends `g`'s group columns and the best value its surviving
  /// instances yield to `out`; nothing when none survives.
  void Fold(GroupRef g, std::vector<uint64_t>* out) {
    folding_ = true;
    has_fold_ = false;
    RunChecks(g);
    if (!has_fold_) return;
    const TupleRef tuple = Tuple(g);
    out->insert(out->end(), tuple.data, tuple.data + tuple.arity - 1);
    out->push_back(fold_);
  }

  /// Forward from an invalidated group: the groups its delta versions give
  /// their best value to become candidates when stamped above it.
  void Forward(GroupRef g) {
    min_stamp_ = static_cast<uint64_t>(Stamp(g)) + 1;
    rules_.Forward(static_cast<int>(g.part / n_), Tuple(g),
                   BatchEmitSink{&HeadThunk, this});
  }

  const BackwardForwardInput& in_;
  const SccPlan& scc_;
  const uint32_t n_;                         // Partitions per predicate.
  std::vector<int> canonical_;               // By pred id.
  std::vector<std::vector<uint8_t>> state_;  // By part, indexed by row.
  uint64_t total_rows_ = 0;                  // |I|.

  DeleteRules rules_;

  std::vector<Candidate> heap_;  // Min-heap on stamp.
  uint64_t min_stamp_ = 0;       // HeadThunk's stamp floor.

  // The group whose instances the check versions enumerate, and what
  // they found.
  GroupRef target_;
  uint32_t target_stamp_ = 0;
  uint64_t target_best_ = 0;
  bool folding_ = false;
  bool supported_ = false;
  bool has_fold_ = false;
  uint64_t fold_ = 0;
};

}  // namespace

AggregateDeleteResult RunAggregateDelete(const BackwardForwardInput& in) {
  return AggregateDelete(in).Run();
}

Status CheckStampInvariant(const BackwardForwardInput& in) {
  return AggregateDelete(in).CheckAll();
}

}  // namespace dcdatalog
