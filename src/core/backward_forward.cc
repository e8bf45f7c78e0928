#include "core/backward_forward.h"

#include <algorithm>
#include <atomic>

#include "common/chaos.h"
#include "common/hash.h"
#include "common/logging.h"
#include "runtime/batch_pipeline.h"

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

/// What the shards of one delete share: the input and the guard.
struct Shared {
  const BackwardForwardInput& in;
  uint32_t num_shards = 1;
  uint64_t total_rows = 0;                // |I|.
  std::atomic<uint64_t> num_deleted{0};  // |D|, over every shard.

  /// The guard: once more is deleted than survives, recomputing the SCC
  /// costs less than checking on.
  bool Tripped() const {
    return 2 * num_deleted.load(std::memory_order_relaxed) > total_rows;
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
        rules_(in_) {
    const size_t num_preds = scc_.derived_preds.size();
    canonical_.resize(num_preds);
    state_.resize(num_preds * n_);
    watch_head_.resize(num_preds * n_);
    for (size_t p = 0; p < num_preds; ++p) {
      canonical_[p] = scc_.ReplicasOf(scc_.derived_preds[p]).front();
      for (uint32_t w = 0; w < n_; ++w) {
        const uint64_t rows = Table(p * n_ + w).rows().size();
        state_[p * n_ + w].assign(rows, 0);
        watch_head_[p * n_ + w].assign(rows, kNoWatch);
      }
    }
  }

  /// Runs the shard to its end, or until the guard trips in any shard:
  /// fills `out` with its D (unsorted) and its |C|.
  void Run(BackwardForwardResult* out) {
    out->deleted.assign(scc_.derived_preds.size(),
                        std::vector<std::vector<uint64_t>>(n_));
    // Candidates queue in the removed rows' order, so |C| does not depend
    // on the number of workers.
    rules_.DriveRemoved(BatchEmitSink{&HeadThunk, this});
    while (!candidates_.empty()) {
      DCD_CHAOS_POINT(kDeleteShard);
      if (shared_.Tripped()) break;
      const FactRef f = candidates_.back();
      candidates_.pop_back();
      if ((State(f) & kChecked) == 0) Check(f);
      if ((State(f) & kProved) != 0) continue;
      State(f) |= kDeleted;
      out->deleted[f.part / n_][f.part % n_].push_back(f.row);
      shared_.num_deleted.fetch_add(1, std::memory_order_relaxed);
      if (shared_.Tripped()) break;
      Forward(f);
    }
    out->checked = num_checked_;
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

  /// InstanceThunk's emission context: the check version running.
  struct RuleEmit {
    Shard* self;
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

  /// True when this shard owns the facts agreeing with `tuple` on the
  /// shard column.
  bool Owns(const uint64_t* tuple) const {
    return shared_.num_shards == 1 ||
           PartitionOf(tuple[scc_.shard_col], shared_.num_shards) == shard_;
  }

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

  /// Queues the heads of a batch of forward instances as candidates.
  static void HeadThunk(void* c, const HeadSpec& head, const uint64_t* wires,
                        uint32_t count, uint32_t wire_arity) {
    auto* self = static_cast<Shard*>(c);
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
      if (!found ||
          (self->State(h) & (kQueued | kDeleted | kProved)) != 0) {
        continue;
      }
      self->State(h) |= kQueued;
      self->candidates_.push_back(h);
    }
  }

  /// Takes a batch of instances deriving the fact being opened, each one
  /// packed as its same-SCC body facts back to back: an instance with no
  /// such fact proves it outright; else its facts are queued for lookup,
  /// their existence slots prefetched.
  static void InstanceThunk(void* c, const HeadSpec& head,
                            const uint64_t* wires, uint32_t count,
                            uint32_t wire_arity) {
    (void)head;
    auto* e = static_cast<RuleEmit*>(c);
    Shard* self = e->self;
    const std::vector<CheckAtom>& atoms = e->rule->check_atoms;
    // The planner admits at most two same-SCC goals per rule.
    DCD_DCHECK(atoms.size() <= 2);
    if (atoms.empty()) {
      self->opened_proved_ = true;
      return;
    }
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t* instance = wires + static_cast<size_t>(i) * wire_arity;
      size_t offset = self->pending_words_.size();
      self->pending_words_.insert(self->pending_words_.end(), instance,
                                  instance + wire_arity);
      self->pending_sizes_.push_back(static_cast<uint8_t>(atoms.size()));
      for (const CheckAtom& atom : atoms) {
        const uint64_t* tuple = &self->pending_words_[offset];
        // The shard column is proof-invariant: the fact is this shard's.
        DCD_DCHECK(self->Owns(tuple));
        const uint32_t part = self->PartOf(atom.pred_id, tuple);
        const uint64_t hash = HashWords(tuple, atom.width);
        self->Table(part).PrefetchFindSlot(hash);
        self->pending_.push_back(
            Pending{part, static_cast<uint32_t>(offset), hash});
        offset += atom.width;
      }
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

  /// Forward from a deleted fact: the heads of the instances holding it
  /// become candidates. Other same-SCC facts come from I; an instance that
  /// also holds a removed row was named by DriveRemoved.
  void Forward(FactRef f) {
    rules_.Forward(static_cast<int>(f.part / n_), Tuple(f),
                   BatchEmitSink{&HeadThunk, this});
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
    for (size_t c : rules_.ChecksOf(static_cast<int>(f.part / n_))) {
      RuleEmit e{this, &scc_.check_rules[c]};
      rules_.RunCheck(c, tuple, BatchEmitSink{&InstanceThunk, &e});
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

  Shared& shared_;
  const BackwardForwardInput& in_;
  const SccPlan& scc_;
  const uint32_t n_;                         // Partitions per predicate.
  const uint32_t shard_;
  std::vector<int> canonical_;               // By pred id.
  std::vector<std::vector<uint8_t>> state_;  // By part, indexed by row.
  uint64_t num_checked_ = 0;                 // |C| of this shard.

  DeleteRules rules_;

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

DeleteRules::DeleteRules(const BackwardForwardInput& in) : in_(in) {
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
    const ReplicaSpec& spec = scc.replicas[rule.driving_replica];
    const uint32_t w = spec.partition_constant
                           ? 0
                           : PartitionOf(tuple[spec.partition_col],
                                         in_.num_workers);
    PipelineContext& ctx = delta_ctx_[d];
    ctx.replicas = &(*in_.tables)[w];
    RunOne(rule, ctx, tuple, emit);
  }
}

void DeleteRules::RunCheck(size_t c, TupleRef tuple, BatchEmitSink emit) {
  RunOne(in_.scc->check_rules[c], check_ctx_[c], tuple, emit);
}

BackwardForwardResult RunBackwardForward(const BackwardForwardInput& in) {
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
  std::vector<BackwardForwardResult> shards(shared.num_shards);
  in.run_gang(shared.num_shards, [&](uint32_t s) {
    Shard(shared, s).Run(&shards[s]);
  });

  BackwardForwardResult result = std::move(shards[0]);
  result.completed = !shared.Tripped();
  for (uint32_t s = 1; s < shared.num_shards; ++s) {
    result.checked += shards[s].checked;
    for (size_t p = 0; p < result.deleted.size(); ++p) {
      for (uint32_t w = 0; w < in.num_workers; ++w) {
        std::vector<uint64_t>& rows = result.deleted[p][w];
        const std::vector<uint64_t>& more = shards[s].deleted[p][w];
        rows.insert(rows.end(), more.begin(), more.end());
      }
    }
  }
  for (auto& per_worker : result.deleted) {
    for (auto& rows : per_worker) std::sort(rows.begin(), rows.end());
  }
  return result;
}

}  // namespace dcdatalog
