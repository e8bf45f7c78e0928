// Incremental evaluation over streaming EDB updates: the session state an
// Engine retains between batches, and the insert and delete drivers.

#include "core/engine.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/logging.h"
#include "common/timer.h"
#include "core/delete.h"
#include "core/scc_executor.h"
#include "datalog/analysis.h"
#include "planner/logical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/recursive_table.h"

namespace dcdatalog {

/// Everything an incremental session retains between ApplyUpdates batches:
/// the augmented plan, the per-worker merge structures at the current
/// fixpoint, the base indexes, and the row-count watermarks separating
/// "already processed" from "newly arrived" rows.
struct Engine::IncrementalState {
  Program program;
  ProgramAnalysis analysis;
  PhysicalPlan plan;
  /// False when the update-version augmentation failed outright; every
  /// batch then takes the full-recompute fallback.
  bool have_update_rules = false;

  std::unique_ptr<BaseIndexSet> base_indexes;
  /// Retained merge structures, [scc][worker][replica]. Moved into the
  /// SccExecutor's workers for each batch and back out afterwards.
  std::vector<std::vector<std::vector<std::unique_ptr<RecursiveTable>>>>
      replicas;
  /// rows() size of each retained table at the last sync, same shape —
  /// rows past the watermark are the batch's new derivations, appended to
  /// the catalog relation during materialization.
  std::vector<std::vector<std::vector<uint64_t>>> replica_watermarks;
  /// Relation name → row count at the last sync.
  std::map<std::string, uint64_t> rel_watermarks;
  /// Base-index ids by backing relation, for Finder().
  std::map<std::string, std::vector<int>> indexes_by_rel;
  /// Relations some update version reads in a scan or probe step (not as
  /// its driving relation): a delete keeps their pre-batch contents.
  std::set<std::string> update_read_rels;

  /// Where each retained row of an aggregate predicate sits in its
  /// catalog relation: [worker][row id] → catalog row, and back. Built on
  /// the predicate's first incremental sync after a full run, when the
  /// catalog holds the canonical replica's partitions back to back; every
  /// full run drops them.
  struct CatalogLayout {
    std::vector<std::vector<uint64_t>> pos;
    std::vector<std::pair<uint32_t, uint64_t>> owner;
  };
  std::map<std::string, CatalogLayout> layouts;

  /// The stamp clock of the retained rows: the highest stamp any
  /// of them carries. A full run restarts it from 0.
  uint32_t clock = 0;

  // Eligibility metadata, read off the program text once.
  std::set<std::string> negated_rels;  // Appears under negation.
  std::map<std::string, std::set<std::string>> consumers;  // Body → heads.

  /// Closes `affected` over body→head consumption edges: anything derived
  /// (directly or transitively) from an affected relation is affected.
  void PropagateAffected(std::set<std::string>* affected) const {
    std::vector<std::string> frontier(affected->begin(), affected->end());
    while (!frontier.empty()) {
      const std::string p = std::move(frontier.back());
      frontier.pop_back();
      auto it = consumers.find(p);
      if (it == consumers.end()) continue;
      for (const std::string& head : it->second) {
        if (affected->insert(head).second) frontier.push_back(head);
      }
    }
  }

  /// Builds / catches up every base index the SCC's rules probe.
  Status SyncSccIndexes(const SccPlan& scc, const Catalog& catalog) {
    for (const auto* rules :
         {&scc.base_rules, &scc.delta_rules, &scc.update_rules}) {
      for (const PhysicalRule& rule : *rules) {
        for (const Step& step : rule.steps) {
          if (step.base_index_id < 0) continue;
          DCD_RETURN_IF_ERROR(
              base_indexes->SyncAppended(step.base_index_id, catalog));
        }
      }
    }
    return Status::OK();
  }

  /// Finds catalog rows through the base indexes built over them, and
  /// keeps those indexes in step as rows leave.
  RowFinder Finder() {
    RowFinder finder;
    finder.find = [this](const std::string& name, const Relation& relation,
                         TupleRef row, std::vector<uint64_t>* ids) {
      auto it = indexes_by_rel.find(name);
      if (it == indexes_by_rel.end()) return false;
      for (int id : it->second) {
        if (base_indexes->FindEqualRows(id, relation, row, ids)) return true;
      }
      return false;
    };
    finder.will_remove = [this](const Relation& relation,
                                const std::vector<uint64_t>& ids) {
      base_indexes->RemoveRows(relation, ids);
    };
    return finder;
  }

  /// Copies relation `name` into `old_copies` before the batch removes rows
  /// from it, when an update version reads it: the pre-batch state the
  /// delete's forward drive needs. Nothing else reads the copy.
  void KeepOldCopy(const std::string& name, const Relation& rel,
                   std::map<std::string, Relation>* old_copies,
                   EvalStats* stats) const {
    if (update_read_rels.count(name) == 0 || old_copies->count(name) > 0) {
      return;
    }
    old_copies->emplace(name, rel);
    stats->update_rows_scanned += rel.size();
  }

  /// Applies removal deltas to the catalog through the session's indexes,
  /// which follow the removed rows in place.
  Status RemoveFromCatalog(const std::vector<RelationDelta>& removals,
                           Catalog* catalog, EvalStats* stats) {
    RowFinder finder = Finder();
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(removals, catalog, &finder));
    stats->update_rows_scanned += finder.rows_scanned;
    return Status::OK();
  }

  /// Records each retained table's row count and restarts the change log
  /// of its aggregate tables: the next batch's new rows lie past the
  /// watermark, its changed groups in the log.
  void RecordSccWatermarks(size_t s) {
    auto& per_worker = replica_watermarks[s];
    per_worker.resize(replicas[s].size());
    for (size_t w = 0; w < replicas[s].size(); ++w) {
      per_worker[w].resize(replicas[s][w].size());
      for (size_t r = 0; r < replicas[s][w].size(); ++r) {
        RecursiveTable& table = *replicas[s][w][r];
        per_worker[w][r] = table.rows().size();
        if (table.agg_spec().func != AggFunc::kNone) table.StartChangeLog();
      }
    }
  }

  /// True when some update rule of the SCC has rows past its driving
  /// relation's watermark, i.e. the batch gave this SCC work.
  bool SccHasNewInput(const SccPlan& scc, const Catalog& catalog) const {
    for (const PhysicalRule& rule : scc.update_rules) {
      const Relation* rel = catalog.Find(rule.driving_relation);
      auto wm = rel_watermarks.find(rule.driving_relation);
      if (rel != nullptr && wm != rel_watermarks.end() &&
          rel->size() > wm->second) {
        return true;
      }
    }
    return false;
  }

  /// Brings aggregate predicate `pred`'s catalog relation up to SCC `s`'s
  /// retained tables after an insert batch. Groups whose value changed move
  /// to the tail with their new value, new groups are appended after them,
  /// and the relation watermark is left in front of both, so a downstream
  /// update rule drives exactly those rows. Costs O(changed + new) once the
  /// layout exists; the base indexes over `pred` follow each rewritten row.
  Status SyncAggregate(const SccPlan& scc, size_t s, const std::string& pred,
                       Relation* rel) {
    const int canonical = scc.ReplicasOf(pred).front();
    auto& tables = replicas[s];
    const uint32_t n = static_cast<uint32_t>(tables.size());
    std::vector<std::vector<uint64_t>> changed(n);
    uint64_t moved = 0;
    uint64_t fresh = 0;
    for (uint32_t w = 0; w < n; ++w) {
      RecursiveTable& table = *tables[w][canonical];
      changed[w] = table.TakeChangedRows();
      moved += changed[w].size();
      fresh += table.rows().size() - replica_watermarks[s][w][canonical];
    }
    if (moved == 0 && fresh == 0) return Status::OK();
    DCD_ASSIGN_OR_RETURN(CatalogLayout * layout_ptr,
                         Layout(scc, s, pred, *rel));
    CatalogLayout& layout = *layout_ptr;

    // Partition: every changed row ends up in [tail, size). One already
    // there stays; one in front swaps places with an unchanged tail row.
    const auto rewrite = [&](uint64_t p, TupleRef row) {
      base_indexes->RewriteRow(*rel, p, row);
      rel->SetRow(p, row);
    };
    const uint64_t size = rel->size();
    const uint64_t tail = size - moved;
    std::vector<uint64_t> at;
    at.reserve(moved);
    for (uint32_t w = 0; w < n; ++w) {
      for (uint64_t r : changed[w]) at.push_back(layout.pos[w][r]);
    }
    std::sort(at.begin(), at.end());
    const size_t in_front =
        std::lower_bound(at.begin(), at.end(), tail) - at.begin();
    size_t next_in_tail = in_front;
    uint64_t t = tail;
    for (size_t i = 0; i < in_front; ++i) {
      while (next_in_tail < at.size() && at[next_in_tail] == t) {
        ++next_in_tail;
        ++t;
      }
      const auto front = layout.owner[at[i]];
      const auto back = layout.owner[t];
      rewrite(at[i], rel->Row(t));
      layout.owner[at[i]] = back;
      layout.pos[back.first][back.second] = at[i];
      layout.owner[t] = front;
      layout.pos[front.first][front.second] = t;
      ++t;
    }
    for (uint64_t p = tail; p < size; ++p) {
      const auto [w, r] = layout.owner[p];
      rewrite(p, tables[w][canonical]->rows().Row(r));
    }
    for (uint32_t w = 0; w < n; ++w) {
      const Relation& rows = tables[w][canonical]->rows();
      for (uint64_t r = replica_watermarks[s][w][canonical]; r < rows.size();
           ++r) {
        layout.pos[w].push_back(rel->Append(rows.Row(r)));
        layout.owner.emplace_back(w, r);
      }
    }
    rel_watermarks[pred] = tail;
    return Status::OK();
  }

  /// `pred`'s CatalogLayout, built on first use from the retained tables'
  /// watermarks: the catalog then holds the canonical replica's
  /// partitions back to back.
  Result<CatalogLayout*> Layout(const SccPlan& scc, size_t s,
                                const std::string& pred, const Relation& rel) {
    auto [it, built] = layouts.try_emplace(pred);
    CatalogLayout& layout = it->second;
    if (!built) return &layout;
    const int canonical = scc.ReplicasOf(pred).front();
    const uint32_t n = static_cast<uint32_t>(replicas[s].size());
    layout.pos.resize(n);
    for (uint32_t w = 0; w < n; ++w) {
      const uint64_t rows = replica_watermarks[s][w][canonical];
      layout.pos[w].resize(rows);
      for (uint64_t r = 0; r < rows; ++r) {
        layout.pos[w][r] = layout.owner.size();
        layout.owner.emplace_back(w, r);
      }
    }
    if (layout.owner.size() != rel.size()) {
      layouts.erase(it);
      return Status::Internal("catalog relation '" + pred +
                              "' does not match its retained tables");
    }
    return &layout;
  }

  /// Erases the rows `dead[w]` (ascending row ids of worker w's canonical
  /// partition) from `pred`'s catalog relation, and patches its layout and
  /// the base indexes over it, in O(|dead|): the catalog relation fills its
  /// holes from the tail, and so does each partition's
  /// RecursiveTable::RemoveRows, which the caller runs next.
  Status EraseFromCatalog(const SccPlan& scc, size_t s,
                          const std::string& pred,
                          const std::vector<std::vector<uint64_t>>& dead,
                          Relation* rel) {
    DCD_ASSIGN_OR_RETURN(CatalogLayout * layout, Layout(scc, s, pred, *rel));
    std::vector<uint64_t> dead_pos;
    for (size_t w = 0; w < dead.size(); ++w) {
      for (uint64_t r : dead[w]) dead_pos.push_back(layout->pos[w][r]);
    }
    std::sort(dead_pos.begin(), dead_pos.end());
    base_indexes->RemoveRows(*rel, dead_pos);
    rel->RemoveRows(dead_pos);
    // Highest position first, the catalog row moved into each hole takes
    // its owner along.
    for (size_t i = dead_pos.size(); i-- > 0;) {
      const uint64_t last = layout->owner.size() - 1;
      if (dead_pos[i] != last) {
        const auto moved = layout->owner[last];
        layout->owner[dead_pos[i]] = moved;
        layout->pos[moved.first][moved.second] = dead_pos[i];
      }
      layout->owner.pop_back();
    }
    // The same for each partition: its last row takes the hole's id.
    for (uint32_t w = 0; w < dead.size(); ++w) {
      std::vector<uint64_t>& pos = layout->pos[w];
      for (size_t i = dead[w].size(); i-- > 0;) {
        const uint64_t r = dead[w][i];
        if (r != pos.size() - 1) {
          pos[r] = pos.back();
          layout->owner[pos[r]] = {w, r};
        }
        pos.pop_back();
      }
    }
    DCD_DCHECK(layout->owner.size() == rel->size());
    return Status::OK();
  }

  /// True when SCC `s`'s retained tables hold rows awaiting a semi-naive
  /// step: a delete's reseeded facts.
  bool HasPendingDelta(size_t s) const {
    for (const auto& per_worker : replicas[s]) {
      for (const auto& table : per_worker) {
        if (table->delta_size() > 0) return true;
      }
    }
    return false;
  }

  /// Fills `in` for a delete through SCC `s`: catches up the `indexes`
  /// its delta and check versions probe (in the session's set, the
  /// check-only ones are built on the first delete) and builds
  /// `old_indexes` over the pre-batch copies its update versions read. The
  /// caller sets `in->run_gang`.
  Status PrepareDelete(size_t s, const Catalog& catalog,
                       const std::map<std::string, Relation>& old_copies,
                       const std::map<std::string, Relation>& removed_rows,
                       BaseIndexSet* indexes, BaseIndexSet* old_indexes,
                       DeleteInput* in) {
    const SccPlan& scc = plan.sccs[s];
    for (const auto* rules : {&scc.delta_rules, &scc.check_rules}) {
      for (const PhysicalRule& rule : *rules) {
        for (const Step& step : rule.steps) {
          if (step.base_index_id < 0) continue;
          DCD_RETURN_IF_ERROR(
              indexes->SyncAppended(step.base_index_id, catalog));
        }
      }
    }
    for (const PhysicalRule& rule : scc.update_rules) {
      if (removed_rows.count(rule.driving_relation) == 0) continue;
      for (const Step& step : rule.steps) {
        if (step.base_index_id < 0) continue;
        auto old = old_copies.find(step.relation);
        const Relation* rel = old != old_copies.end()
                                  ? &old->second
                                  : catalog.Find(step.relation);
        if (rel == nullptr) {
          return Status::Internal("relation '" + step.relation +
                                  "' missing on the delete path");
        }
        old_indexes->EnsureBuiltOver(step.base_index_id, *rel);
      }
    }
    in->scc = &scc;
    in->num_workers = static_cast<uint32_t>(replicas[s].size());
    in->tables = &replicas[s];
    in->removed = &removed_rows;
    in->catalog = &catalog;
    in->indexes = indexes;
    in->old_indexes = old_indexes;
    in->old_relations = &old_copies;
    return Status::OK();
  }

  /// True when some rule of the SCC consumes (positive body atom) one of
  /// `rels`.
  bool SccConsumesAny(const SccPlan& scc,
                      const std::set<std::string>& rels) const {
    const SccInfo& info = analysis.sccs()[scc.scc_id];
    for (int r : info.rule_indices) {
      for (const BodyLiteral& lit : program.rules[r].body) {
        if (lit.kind != BodyLiteral::Kind::kAtom || lit.negated) continue;
        if (rels.count(lit.atom.predicate) > 0) return true;
      }
    }
    return false;
  }
};

// The constructor and destructor live here, where IncrementalState is
// complete: both may destroy inc_.
Engine::Engine(Catalog* catalog, EngineOptions options)
    : catalog_(catalog), options_(options.Resolved()) {}

Engine::~Engine() = default;

void Engine::EndIncremental() { inc_.reset(); }

Result<EvalStats> Engine::BeginIncremental(const Program& program) {
  auto state = std::make_unique<IncrementalState>();
  state->program = program.Clone();
  DCD_ASSIGN_OR_RETURN(
      state->analysis, ProgramAnalysis::Analyze(state->program, *catalog_));
  DCD_ASSIGN_OR_RETURN(std::vector<LogicalRulePlan> logical,
                       BuildLogicalPlans(state->program, state->analysis));
  Result<PhysicalPlan> augmented =
      BuildPhysicalPlan(state->program, state->analysis, logical,
                        /*build_update_rules=*/true);
  if (augmented.ok()) {
    state->plan = std::move(augmented).value();
    state->have_update_rules = true;
  } else {
    DCD_ASSIGN_OR_RETURN(
        state->plan,
        BuildPhysicalPlan(state->program, state->analysis, logical));
  }

  for (const Rule& rule : state->program.rules) {
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kAtom) continue;
      if (lit.negated) {
        state->negated_rels.insert(lit.atom.predicate);
        continue;
      }
      state->consumers[lit.atom.predicate].insert(rule.head.predicate);
    }
  }
  for (size_t i = 0; i < state->plan.base_indexes.size(); ++i) {
    state->indexes_by_rel[state->plan.base_indexes[i].relation].push_back(
        static_cast<int>(i));
  }
  for (const SccPlan& scc : state->plan.sccs) {
    for (const PhysicalRule& rule : scc.update_rules) {
      for (const Step& step : rule.steps) {
        if (!step.relation.empty() && step.kind != StepKind::kProbeRecursive) {
          state->update_read_rels.insert(step.relation);
        }
      }
    }
  }

  inc_ = std::move(state);
  Result<EvalStats> run = RunRetaining();
  if (!run.ok()) inc_.reset();
  return run;
}

Result<EvalStats> Engine::RunRetaining() {
  IncrementalState* st = inc_.get();
  WallTimer timer;
  EvalStats stats;
  st->base_indexes = std::make_unique<BaseIndexSet>(st->plan.base_indexes);
  st->replicas.clear();
  st->replicas.resize(st->plan.sccs.size());
  st->replica_watermarks.assign(st->plan.sccs.size(), {});
  st->layouts.clear();
  st->clock = 0;
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    DCD_RETURN_IF_ERROR(st->SyncSccIndexes(scc, *catalog_));
    auto& retained = st->replicas[s];
    retained.resize(options_.num_workers);
    const IncrementalHooks hooks{.retained = &retained, .clock = &st->clock};
    SccExecutor executor(st->plan, scc, catalog_, st->base_indexes.get(),
                         options_, static_cast<uint32_t>(s), &hooks);
    DCD_RETURN_IF_ERROR(executor.Run(&stats));
    ++stats.num_sccs;
    st->RecordSccWatermarks(s);
  }
  for (const std::string& name : catalog_->Names()) {
    st->rel_watermarks[name] = catalog_->Find(name)->size();
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<EvalStats> Engine::ApplyUpdates(const ResolvedUpdateBatch& batch) {
  if (inc_ == nullptr) {
    return Status::InvalidArgument(
        "ApplyUpdates requires an active incremental session "
        "(call BeginIncremental first)");
  }
  IncrementalState* st = inc_.get();
  WallTimer timer;
  EvalStats stats;
  stats.update_batches = 1;

  for (const ResolvedUpdateOp& op : batch.ops) {
    if (st->analysis.HasPredicate(op.relation) &&
        !st->analysis.predicate(op.relation).is_edb) {
      return Status::InvalidArgument(
          "streaming updates may only target EDB relations; '" +
          op.relation + "' is derived");
    }
  }

  // The session's built base indexes find the stored copies of the
  // touched tuples, instead of a scan of every touched relation.
  RowFinder finder = st->Finder();
  DCD_ASSIGN_OR_RETURN(std::vector<RelationDelta> deltas,
                       NetOutBatch(batch, *catalog_, &finder));
  stats.update_rows_scanned += finder.rows_scanned;
  for (const RelationDelta& d : deltas) {
    stats.delta_tuples_in += d.added.size() + d.removed.size();
  }
  if (deltas.empty()) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }

  bool removals = false;
  std::set<std::string> affected;
  for (const RelationDelta& d : deltas) {
    affected.insert(d.relation);
    removals |= !d.removed.empty();
  }
  st->PropagateAffected(&affected);

  // Eligibility: batches whose effects the delta machinery cannot replay
  // exactly fall back to a transparent full recompute (which also resets
  // the retained state, so later batches may be incremental again).
  const auto listed = [](const std::vector<std::string>& names,
                          const std::string& p) {
    return std::find(names.begin(), names.end(), p) != names.end();
  };
  bool fallback = !st->have_update_rules;
  for (const std::string& p : affected) {
    // A change under negation is non-monotone on the positive side.
    // Inserts lower a min (raise a max) in place; the planner lists the
    // aggregates with a reader that is not monotone in that value, and the
    // sum predicates, whose merge replaces a contributor's value. The
    // delete needs a check version of every rule of the SCC: count, sum
    // and non-copy min/max SCCs have none.
    fallback = fallback || st->negated_rels.count(p) > 0 ||
               listed(st->plan.insert_recompute_preds, p) ||
               listed(st->plan.update_ineligible_rels, p) ||
               (removals && listed(st->plan.check_ineligible_preds, p));
  }

  // Applies the `pending` deltas and recomputes while rebuilding the
  // retained state.
  const auto recompute =
      [&](const std::vector<RelationDelta>& pending) -> Result<EvalStats> {
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(pending, catalog_));
    Result<EvalStats> rerun = RunRetaining();
    if (!rerun.ok()) {
      inc_.reset();  // Retained state is torn; the session cannot continue.
      return rerun.status();
    }
    EvalStats out = std::move(rerun).value();
    out.update_recomputes = 1;
    out.update_batches = stats.update_batches;
    out.delta_tuples_in = stats.delta_tuples_in;
    out.rederived_tuples += stats.rederived_tuples;
    out.update_rows_scanned += stats.update_rows_scanned;
    out.seconds = timer.ElapsedSeconds();
    return out;
  };
  if (fallback) return recompute(deltas);

  // --- Delete phase: restore the fixpoint under the removals alone. ---
  if (removals) {
    std::map<std::string, Relation> old_copies;
    std::map<std::string, Relation> removed_rows;
    std::vector<RelationDelta> removal_deltas;
    for (const RelationDelta& d : deltas) {
      if (d.removed.empty()) continue;
      const Relation* rel = catalog_->Find(d.relation);
      st->KeepOldCopy(d.relation, *rel, &old_copies, &stats);
      Relation rm(d.relation, rel->schema());
      for (const auto& row : d.removed) {
        rm.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
      }
      removed_rows.emplace(d.relation, std::move(rm));
      removal_deltas.push_back(
          {.relation = d.relation, .added = {}, .removed = d.removed});
    }
    DCD_RETURN_IF_ERROR(
        st->RemoveFromCatalog(removal_deltas, catalog_, &stats));
    Result<bool> del = RunDeletePhase(&old_copies, &removed_rows, &stats);
    if (!del.ok()) {
      inc_.reset();
      return del.status();
    }
    if (!del.value()) {
      // A delete gave up; the removals are already applied.
      std::vector<RelationDelta> inserts = deltas;
      for (RelationDelta& d : inserts) d.removed.clear();
      return recompute(inserts);
    }
  }

  // --- Insert phase: append, then re-drive from the new rows and from
  // the facts a delete reseeded. ---
  for (const RelationDelta& d : deltas) {
    if (d.added.empty()) continue;
    Relation* rel = catalog_->Find(d.relation);
    // Watermark first: rows appended past it are this batch's deltas.
    st->rel_watermarks[d.relation] = rel->size();
    DCD_RETURN_IF_ERROR(ApplyDeltasToCatalog(
        {{.relation = d.relation, .added = d.added, .removed = {}}},
        catalog_));
  }
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    // Most inserts into a min aggregate change no group, and then its
    // readers have nothing to drive.
    if (!st->SccHasNewInput(scc, *catalog_) && !st->HasPendingDelta(s)) {
      continue;
    }
    Status sync = st->SyncSccIndexes(scc, *catalog_);
    if (!sync.ok()) {
      inc_.reset();
      return sync;
    }
    const IncrementalHooks hooks{.retained = &st->replicas[s],
                                 .watermarks = &st->rel_watermarks,
                                 .clock = &st->clock};
    SccExecutor executor(st->plan, scc, catalog_, st->base_indexes.get(),
                         options_, static_cast<uint32_t>(s), &hooks);
    Status run = executor.Run(&stats);
    if (!run.ok()) {
      inc_.reset();
      return run;
    }
    ++stats.num_sccs;
    // Materialize: kNone predicates append the retained tables' rows past
    // the replica watermarks in place; aggregate predicates move their
    // changed groups to the tail and append their new ones.
    for (const std::string& pred : scc.derived_preds) {
      const int canonical = scc.ReplicasOf(pred).front();
      Relation* rel = catalog_->Find(pred);
      if (st->plan.agg_specs.at(pred).func == AggFunc::kNone) {
        st->rel_watermarks[pred] = rel->size();
        for (uint32_t w = 0; w < options_.num_workers; ++w) {
          const RecursiveTable& table = *st->replicas[s][w][canonical];
          for (uint64_t r = st->replica_watermarks[s][w][canonical];
               r < table.rows().size(); ++r) {
            rel->Append(table.rows().Row(r));
          }
        }
      } else {
        Status sync = st->SyncAggregate(scc, s, pred, rel);
        if (!sync.ok()) {
          inc_.reset();
          return sync;
        }
      }
    }
    st->RecordSccWatermarks(s);
  }

  for (const std::string& name : catalog_->Names()) {
    st->rel_watermarks[name] = catalog_->Find(name)->size();
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

Result<bool> Engine::RunDeletePhase(
    std::map<std::string, Relation>* old_copies,
    std::map<std::string, Relation>* removed_rows, EvalStats* stats) {
  IncrementalState* st = inc_.get();
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    std::set<std::string> removed_names;
    for (const auto& [name, rel] : *removed_rows) {
      if (!rel.empty()) removed_names.insert(name);
    }
    if (removed_names.empty()) break;
    if (!st->SccConsumesAny(scc, removed_names)) continue;
    DCD_ASSIGN_OR_RETURN(bool done,
                         DeleteFromScc(s, old_copies, removed_rows, stats));
    if (!done) return false;
  }
  return true;
}

Result<bool> Engine::DeleteFromScc(
    size_t scc_idx, std::map<std::string, Relation>* old_copies,
    std::map<std::string, Relation>* removed_rows, EvalStats* stats) {
  IncrementalState* st = inc_.get();
  // Stamps stay far from wrapping: a session this old recomputes, which
  // restarts its clock.
  if (st->clock >= (1u << 31)) return false;
  const SccPlan& scc = st->plan.sccs[scc_idx];
  const uint32_t n = options_.num_workers;
  auto& tables = st->replicas[scc_idx];

  BaseIndexSet old_indexes(st->plan.base_indexes);
  DeleteInput in;
  DCD_RETURN_IF_ERROR(st->PrepareDelete(scc_idx, *catalog_, *old_copies,
                                        *removed_rows, st->base_indexes.get(),
                                        &old_indexes, &in));
  in.run_gang = [this, stats](uint32_t k,
                              const std::function<void(uint32_t)>& fn) {
    RunGang(options_, k, stats, fn);
  };
  const DeleteResult del = RunDelete(in);
  stats->rederived_tuples += del.checked;
  if (!del.completed) return false;

  // Commit: the invalidated facts leave every replica partition and the
  // catalog relation, and their old rows go downstream as this SCC's
  // removed rows.
  for (uint32_t w = 0; w < n; ++w) {
    for (auto& table : tables[w]) table->RebindWriter();
  }
  for (size_t p = 0; p < scc.derived_preds.size(); ++p) {
    const std::string& pred = scc.derived_preds[p];
    const std::vector<int> reps = scc.ReplicasOf(pred);
    Relation gone(pred, st->plan.schemas.at(pred));
    for (uint32_t w = 0; w < n; ++w) {
      for (uint64_t row : del.invalidated[p][w]) {
        gone.Append(tables[w][reps[0]]->rows().Row(row));
      }
    }
    if (gone.empty()) continue;
    Relation* rel = catalog_->Find(pred);
    st->KeepOldCopy(pred, *rel, old_copies, stats);
    if (st->plan.agg_specs.at(pred).func == AggFunc::kNone) {
      std::vector<RelationDelta> removal(1);
      removal[0].relation = pred;
      for (uint64_t r = 0; r < gone.size(); ++r) {
        const TupleRef row = gone.Row(r);
        removal[0].removed.emplace_back(row.data, row.data + row.arity);
      }
      DCD_RETURN_IF_ERROR(st->RemoveFromCatalog(removal, catalog_, stats));
    } else {
      DCD_RETURN_IF_ERROR(
          st->EraseFromCatalog(scc, scc_idx, pred, del.invalidated[p], rel));
    }
    for (uint32_t w = 0; w < n; ++w) {
      tables[w][reps[0]]->RemoveRows(del.invalidated[p][w]);
    }
    // The other replicas hold the same rows, partitioned on other columns.
    for (size_t k = 1; k < reps.size(); ++k) {
      const ReplicaSpec& spec = scc.replicas[reps[k]];
      std::vector<std::vector<uint64_t>> ids(n);
      for (uint64_t r = 0; r < gone.size(); ++r) {
        const TupleRef row = gone.Row(r);
        const uint32_t w = spec.WorkerOf(row.data, n);
        const uint64_t id = tables[w][reps[k]]->FindRowId(row);
        DCD_DCHECK(id != UINT64_MAX);
        if (id != UINT64_MAX) ids[w].push_back(id);
      }
      for (uint32_t w = 0; w < n; ++w) {
        std::sort(ids[w].begin(), ids[w].end());
        tables[w][reps[k]]->RemoveRows(ids[w]);
      }
    }
    st->rel_watermarks[pred] = rel->size();
    removed_rows->emplace(pred, std::move(gone));
  }
  st->RecordSccWatermarks(scc_idx);

  // Reseed: each reseed row re-enters every replica of its predicate as a
  // new row, stamped above every row the session holds; the insert phase
  // runs the SCC on from there.
  ++st->clock;
  for (size_t p = 0; p < scc.derived_preds.size(); ++p) {
    const std::vector<uint64_t>& rows = del.reseed[p];
    if (rows.empty()) continue;
    for (int r : scc.ReplicasOf(scc.derived_preds[p])) {
      const ReplicaSpec& spec = scc.replicas[r];
      const uint32_t arity = tables[0][r]->stored_arity();
      std::vector<std::vector<uint64_t>> parts(n);
      for (size_t i = 0; i < rows.size(); i += arity) {
        const uint32_t w = spec.WorkerOf(&rows[i], n);
        parts[w].insert(parts[w].end(), &rows[i], &rows[i] + arity);
      }
      for (uint32_t w = 0; w < n; ++w) {
        if (parts[w].empty()) continue;
        RecursiveTable& table = *tables[w][r];
        table.SetMergeStamp(st->clock);
        table.MergeBatch(parts[w].data(), parts[w].size() / arity, arity);
      }
    }
  }
  return true;
}

Status Engine::CheckStampInvariant() {
  if (inc_ == nullptr) {
    return Status::InvalidArgument(
        "CheckStampInvariant requires an active incremental session");
  }
  IncrementalState* st = inc_.get();
  const std::map<std::string, Relation> none;
  for (size_t s = 0; s < st->plan.sccs.size(); ++s) {
    const SccPlan& scc = st->plan.sccs[s];
    if (scc.check_rules.empty()) continue;
    // Indexes of its own: the check leaves the session's as they are.
    BaseIndexSet indexes(st->plan.base_indexes);
    DeleteInput in;
    DCD_RETURN_IF_ERROR(st->PrepareDelete(s, *catalog_, none, none, &indexes,
                                          &indexes, &in));
    DCD_RETURN_IF_ERROR(dcdatalog::CheckStampInvariant(in));
  }
  return Status::OK();
}

Status Engine::CheckIndexes() const {
  if (inc_ == nullptr) {
    return Status::InvalidArgument(
        "CheckIndexes requires an active incremental session");
  }
  const IncrementalState* st = inc_.get();
  DCD_RETURN_IF_ERROR(st->base_indexes->CheckIndexes());
  for (const auto& per_worker : st->replicas) {
    for (const auto& tables : per_worker) {
      for (const auto& table : tables) {
        DCD_RETURN_IF_ERROR(table->CheckIndexes());
      }
    }
  }
  for (const auto& [pred, layout] : st->layouts) {
    const Relation* rel = catalog_->Find(pred);
    size_t s = 0;
    while (st->plan.sccs[s].PredIdOf(pred) < 0) ++s;
    const int canonical = st->plan.sccs[s].ReplicasOf(pred).front();
    const auto broken = [&pred](const std::string& what) {
      return Status::Internal("catalog layout of '" + pred + "': " + what);
    };
    if (layout.owner.size() != rel->size()) {
      return broken("covers a different number of rows");
    }
    uint64_t placed = 0;
    for (uint32_t w = 0; w < layout.pos.size(); ++w) {
      const Relation& rows = st->replicas[s][w][canonical]->rows();
      if (layout.pos[w].size() != rows.size()) {
        return broken("misses rows of partition " + std::to_string(w));
      }
      for (uint64_t r = 0; r < rows.size(); ++r) {
        const uint64_t p = layout.pos[w][r];
        if (p >= rel->size() || layout.owner[p] != std::make_pair(w, r) ||
            !(rel->Row(p) == rows.Row(r))) {
          return broken("places partition " + std::to_string(w) + " row " +
                        std::to_string(r) + " wrongly");
        }
        ++placed;
      }
    }
    if (placed != rel->size()) return broken("is not onto its relation");
  }
  return Status::OK();
}

}  // namespace dcdatalog
