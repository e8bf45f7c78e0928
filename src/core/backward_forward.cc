#include "core/backward_forward.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "runtime/message.h"
#include "runtime/pipeline.h"

namespace dcdatalog {
namespace {

/// One fact of the SCC: a canonical replica partition (pred id * n +
/// worker) and the fact's row id in it.
struct FactRef {
  uint32_t part = 0;
  uint32_t row = 0;
};

constexpr uint8_t kChecked = 1;  // C
constexpr uint8_t kProved = 2;   // P
constexpr uint8_t kDeleted = 4;  // D
constexpr uint8_t kQueued = 8;   // Entered the candidate queue once.

constexpr uint32_t kNoWatch = UINT32_MAX;

class BackwardForward {
 public:
  explicit BackwardForward(const BackwardForwardInput& in)
      : in_(in), scc_(*in.scc), n_(in.num_workers) {
    const size_t num_preds = scc_.derived_preds.size();
    canonical_.resize(num_preds);
    state_.resize(num_preds * n_);
    watch_head_.resize(num_preds * n_);
    for (size_t p = 0; p < num_preds; ++p) {
      canonical_[p] = scc_.ReplicasOf(scc_.derived_preds[p]).front();
      for (uint32_t w = 0; w < n_; ++w) {
        const uint64_t rows = Table(p * n_ + w).rows().size();
        DCD_CHECK(rows < UINT32_MAX);
        state_[p * n_ + w].assign(rows, 0);
        watch_head_[p * n_ + w].assign(rows, kNoWatch);
        total_rows_ += rows;
      }
    }

    uint32_t max_regs = 1;
    const auto prepare = [&](const PhysicalRule& rule,
                             const BaseIndexSet* indexes) {
      max_regs = std::max(max_regs, rule.num_regs);
      PipelineContext ctx;
      ctx.catalog = in_.catalog;
      ctx.base_indexes = indexes;
      ctx.replicas = &(*in_.tables)[0];
      PreparePipeline(rule, &ctx);
      return ctx;
    };
    check_by_pred_.resize(num_preds);
    for (const PhysicalRule& rule : scc_.check_rules) {
      check_by_pred_[rule.head.pred_id].push_back(check_ctx_.size());
      check_ctx_.push_back(prepare(rule, in_.indexes));
    }
    delta_by_pred_.resize(num_preds);
    for (const PhysicalRule& rule : scc_.delta_rules) {
      const std::string& pred = scc_.replicas[rule.driving_replica].predicate;
      delta_by_pred_[scc_.PredIdOf(pred)].push_back(delta_ctx_.size());
      delta_ctx_.push_back(prepare(rule, in_.indexes));
    }
    for (const PhysicalRule& rule : scc_.update_rules) {
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
    regs_.assign(max_regs, 0);
    for (auto* ctxs : {&check_ctx_, &delta_ctx_, &update_ctx_}) {
      for (PipelineContext& ctx : *ctxs) ctx.regs = regs_.data();
    }
  }

  BackwardForwardResult Run() {
    BackwardForwardResult result;
    result.deleted.assign(scc_.derived_preds.size(),
                          std::vector<std::vector<uint64_t>>(n_));
    DriveRemoved();
    uint64_t num_deleted = 0;
    while (!candidates_.empty()) {
      const FactRef f = candidates_.back();
      candidates_.pop_back();
      if ((State(f) & kChecked) == 0) Check(f);
      if ((State(f) & kProved) != 0) continue;
      State(f) |= kDeleted;
      result.deleted[f.part / n_][f.part % n_].push_back(f.row);
      // The guard: once more is deleted than survives, recomputing the
      // SCC costs less than checking on.
      if (2 * ++num_deleted > total_rows_) {
        result.completed = false;
        break;
      }
      Forward(f);
    }
    result.checked = num_checked_;
    for (auto& per_worker : result.deleted) {
      for (auto& rows : per_worker) std::sort(rows.begin(), rows.end());
    }
    return result;
  }

 private:
  /// A rule instance recorded by Check: it proves `head` once its
  /// `unproved` same-SCC body facts are all proved.
  struct Instance {
    FactRef head;
    uint32_t unproved = 0;
  };
  /// One entry of a fact's watch list: an instance waiting for the fact.
  struct Watch {
    uint32_t instance = 0;
    uint32_t next = kNoWatch;
  };
  /// One Check in progress: the fact and the unproved same-SCC body facts
  /// of its instances, body_[begin, end), visited up to `next`.
  struct Frame {
    FactRef fact;
    size_t begin = 0;
    size_t next = 0;
    size_t end = 0;
  };

  /// Emission context. Emits only record: no pipeline runs inside
  /// another, so all rules share one register file.
  struct RuleEmit {
    BackwardForward* self;
    const PhysicalRule* rule;
  };
  /// A same-SCC body fact an instance names, awaiting its lookup in I:
  /// its partition, its tuple at pending_words_[offset] and its hash.
  struct Pending {
    uint32_t part = 0;
    uint32_t offset = 0;
    uint64_t hash = 0;
  };

  const RecursiveTable& Table(size_t part) const {
    return *(*in_.tables)[part % n_][canonical_[part / n_]];
  }
  TupleRef Tuple(FactRef f) const { return Table(f.part).rows().Row(f.row); }
  uint8_t& State(FactRef f) { return state_[f.part][f.row]; }

  /// The canonical partition holding `tuple` of SCC predicate `pred_id`.
  uint32_t PartOf(int pred_id, const uint64_t* tuple) const {
    const ReplicaSpec& spec = scc_.replicas[canonical_[pred_id]];
    const uint32_t w = spec.partition_constant
                           ? 0
                           : PartitionOf(tuple[spec.partition_col], n_);
    return static_cast<uint32_t>(pred_id) * n_ + w;
  }

  /// The fact `tuple` of SCC predicate `pred_id`; false when I lacks it.
  bool Locate(int pred_id, const uint64_t* tuple, FactRef* out) const {
    const uint32_t part = PartOf(pred_id, tuple);
    const RecursiveTable& table = Table(part);
    const uint64_t row =
        table.FindRowId(TupleRef{tuple, table.stored_arity()});
    if (row == UINT64_MAX) return false;
    *out = FactRef{part, static_cast<uint32_t>(row)};
    return true;
  }

  /// Queues the head of a forward instance as a candidate.
  static void HeadThunk(void* c, const uint64_t* regs) {
    auto* e = static_cast<RuleEmit*>(c);
    BackwardForward* self = e->self;
    uint64_t wire[kMaxWireWords];
    BuildWireTuple(e->rule->head, regs, wire);
    FactRef h;
    // Forward instances lie in the pre-batch fixpoint, so I holds their
    // heads.
    const bool found = self->Locate(e->rule->head.pred_id, wire, &h);
    DCD_DCHECK(found);
    if (!found || (self->State(h) & (kQueued | kDeleted | kProved)) != 0) {
      return;
    }
    self->State(h) |= kQueued;
    self->candidates_.push_back(h);
  }

  /// Takes one instance deriving the fact being opened: an instance with
  /// no same-SCC body fact proves it outright; else its facts are queued
  /// for lookup, their existence slots prefetched.
  static void InstanceThunk(void* c, const uint64_t* regs) {
    auto* e = static_cast<RuleEmit*>(c);
    BackwardForward* self = e->self;
    const std::vector<HeadSpec>& atoms = e->rule->check_atoms;
    // The planner admits at most two same-SCC goals per rule.
    DCD_DCHECK(atoms.size() <= 2);
    if (atoms.empty()) {
      self->opened_proved_ = true;
      return;
    }
    self->pending_sizes_.push_back(static_cast<uint8_t>(atoms.size()));
    for (const HeadSpec& atom : atoms) {
      const uint32_t arity = static_cast<uint32_t>(atom.wire_exprs.size());
      const size_t offset = self->pending_words_.size();
      self->pending_words_.resize(offset + arity);
      uint64_t* tuple = &self->pending_words_[offset];
      BuildWireTuple(atom, regs, tuple);
      const uint32_t part = self->PartOf(atom.pred_id, tuple);
      const uint64_t hash = HashWords(tuple, arity);
      self->Table(part).PrefetchFindSlot(hash);
      self->pending_.push_back(
          Pending{part, static_cast<uint32_t>(offset), hash});
    }
  }

  /// Looks up the facts the opened fact's instances named: an instance
  /// whose facts are all in I \ D and proved proves it (returns true);
  /// else each such instance is recorded, its unproved facts watched and
  /// queued on body_ for the frame to check.
  bool ResolveInstances() {
    // The slots were prefetched at emission; now fetch the rows they name.
    for (const Pending& p : pending_) Table(p.part).PrefetchFindRow(p.hash);
    size_t next = 0;
    for (const uint8_t k : pending_sizes_) {
      FactRef facts[2];
      uint32_t unproved = 0;
      bool in_i = true;
      for (uint8_t i = 0; i < k; ++i) {
        const Pending& p = pending_[next++];
        const RecursiveTable& table = Table(p.part);
        const uint64_t row = table.FindRowId(
            TupleRef{&pending_words_[p.offset], table.stored_arity()}, p.hash);
        if (row == UINT64_MAX) {
          in_i = false;
          continue;
        }
        facts[i] = FactRef{p.part, static_cast<uint32_t>(row)};
        const uint8_t s = State(facts[i]);
        if ((s & kDeleted) != 0) in_i = false;
        if ((s & kProved) == 0) ++unproved;
      }
      if (!in_i) continue;
      if (unproved == 0) return true;
      const uint32_t id = static_cast<uint32_t>(instances_.size());
      instances_.push_back(Instance{opened_, unproved});
      for (uint8_t i = 0; i < k; ++i) {
        if ((State(facts[i]) & kProved) != 0) continue;
        body_.push_back(facts[i]);
        uint32_t& head = watch_head_[facts[i].part][facts[i].row];
        if (head == kNoWatch) watched_.push_back(facts[i]);
        watches_.push_back(Watch{id, head});
        head = static_cast<uint32_t>(watches_.size() - 1);
      }
    }
    return false;
  }

  /// Forward from the removed rows of other relations: every instance
  /// holding one, over the pre-batch state, names a candidate.
  void DriveRemoved() {
    for (size_t u = 0; u < scc_.update_rules.size(); ++u) {
      const PhysicalRule& rule = scc_.update_rules[u];
      auto it = in_.removed->find(rule.driving_relation);
      if (it == in_.removed->end()) continue;
      PipelineContext& ctx = update_ctx_[u];
      RuleEmit e{this, &rule};
      const EmitSink emit{&HeadThunk, &e};
      const Relation& rows = it->second;
      for (uint64_t r = 0; r < rows.size(); ++r) {
        const TupleRef row = rows.Row(r);
        // A recursive probe must read the partition owning its key.
        const uint32_t w =
            rule.update_partition_col >= 0
                ? PartitionOf(row[rule.update_partition_col], n_)
                : 0;
        ctx.replicas = &(*in_.tables)[w];
        RunPipelineForTuple(rule, ctx, row, emit);
      }
    }
  }

  /// Forward from a deleted fact: the heads of the instances holding it
  /// become candidates. Other same-SCC facts come from I; the other
  /// relations are read after the removals — an instance that also holds
  /// a removed row was named by DriveRemoved.
  void Forward(FactRef f) {
    const TupleRef tuple = Tuple(f);
    for (size_t d : delta_by_pred_[f.part / n_]) {
      const PhysicalRule& rule = scc_.delta_rules[d];
      const ReplicaSpec& spec = scc_.replicas[rule.driving_replica];
      const uint32_t w = spec.partition_constant
                             ? 0
                             : PartitionOf(tuple[spec.partition_col], n_);
      PipelineContext& ctx = delta_ctx_[d];
      ctx.replicas = &(*in_.tables)[w];
      RuleEmit e{this, &rule};
      RunPipelineForTuple(rule, ctx, tuple, EmitSink{&HeadThunk, &e});
    }
  }

  /// Marks `f` checked and enumerates the instances deriving it (the
  /// check versions of its predicate). Proves `f` at once when one has no
  /// unproved same-SCC fact; else opens a frame to check the unproved
  /// facts of the recorded instances.
  void Open(FactRef f) {
    State(f) |= kChecked;
    ++num_checked_;
    opened_ = f;
    opened_proved_ = false;
    pending_.clear();
    pending_words_.clear();
    pending_sizes_.clear();
    const TupleRef tuple = Tuple(f);
    for (size_t c : check_by_pred_[f.part / n_]) {
      const PhysicalRule& rule = scc_.check_rules[c];
      RuleEmit e{this, &rule};
      RunPipelineForTuple(rule, check_ctx_[c], tuple,
                          EmitSink{&InstanceThunk, &e});
    }
    const size_t begin = body_.size();
    if (opened_proved_ || ResolveInstances()) {
      // Instances recorded before the proof stay watched; they only ever
      // name a proved head.
      body_.resize(begin);
      Prove(f);
    } else if (body_.size() > begin) {
      stack_.push_back(Frame{f, begin, begin, body_.size()});
    }
  }

  /// Check(f), depth first on stack_: every unchecked body fact of every
  /// instance is checked in turn until `f` is proved. A body fact already
  /// checked is skipped: proved, refuted, or still open — then its watch
  /// proves `f` if it is proved later.
  ///
  /// When Check returns, every fact it left unproved has no proof in
  /// I \ D: all its instances' facts were checked, and a proof would have
  /// reached it through the watches. D only grows, so none ever will; the
  /// instances and watches are dropped.
  void Check(FactRef f) {
    Open(f);
    while (!stack_.empty()) {
      Frame& fr = stack_.back();
      while (fr.next < fr.end && (State(body_[fr.next]) & kChecked) != 0) {
        ++fr.next;
      }
      if ((State(fr.fact) & kProved) != 0 || fr.next == fr.end) {
        body_.resize(fr.begin);
        stack_.pop_back();
        continue;
      }
      const FactRef g = body_[fr.next++];
      Open(g);  // May grow stack_: `fr` is dead from here.
    }
    for (const FactRef w : watched_) watch_head_[w.part][w.row] = kNoWatch;
    watched_.clear();
    watches_.clear();
    instances_.clear();
  }

  /// Saturate: adds `f` to P; every instance whose last unproved fact was
  /// just proved proves its head in turn.
  void Prove(FactRef f) {
    State(f) |= kProved;
    proved_.push_back(f);
    while (!proved_.empty()) {
      const FactRef g = proved_.back();
      proved_.pop_back();
      for (uint32_t w = watch_head_[g.part][g.row]; w != kNoWatch;
           w = watches_[w].next) {
        Instance& inst = instances_[watches_[w].instance];
        if (--inst.unproved != 0 || (State(inst.head) & kProved) != 0) {
          continue;
        }
        State(inst.head) |= kProved;
        proved_.push_back(inst.head);
      }
    }
  }

  const BackwardForwardInput& in_;
  const SccPlan& scc_;
  const uint32_t n_;
  std::vector<int> canonical_;               // By pred id.
  std::vector<std::vector<uint8_t>> state_;  // By part, indexed by row.
  uint64_t total_rows_ = 0;                  // |I|.
  uint64_t num_checked_ = 0;                 // |C|.

  // Per-rule pipeline contexts, prepared once.
  std::vector<PipelineContext> check_ctx_;
  std::vector<PipelineContext> delta_ctx_;
  std::vector<PipelineContext> update_ctx_;
  std::vector<std::vector<size_t>> check_by_pred_;
  std::vector<std::vector<size_t>> delta_by_pred_;
  std::vector<uint64_t> regs_;

  std::vector<FactRef> candidates_;  // Forward's queue.
  std::vector<Frame> stack_;         // Check's explicit stack.
  std::vector<FactRef> body_;        // The frames' facts to check.
  std::vector<FactRef> proved_;      // Saturate's queue.

  // The fact being opened and the instances its check versions emitted.
  FactRef opened_;
  bool opened_proved_ = false;
  std::vector<Pending> pending_;
  std::vector<uint64_t> pending_words_;
  std::vector<uint8_t> pending_sizes_;  // Facts per instance.

  // The instances one top-level Check recorded, and their watch lists.
  std::vector<Instance> instances_;
  std::vector<Watch> watches_;
  std::vector<std::vector<uint32_t>> watch_head_;  // By part, by row.
  std::vector<FactRef> watched_;  // Facts whose watch_head_ is set.
};

}  // namespace

BackwardForwardResult RunBackwardForward(const BackwardForwardInput& in) {
  return BackwardForward(in).Run();
}

}  // namespace dcdatalog
