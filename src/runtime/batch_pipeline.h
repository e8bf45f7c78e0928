#ifndef DCDATALOG_RUNTIME_BATCH_PIPELINE_H_
#define DCDATALOG_RUNTIME_BATCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/recursive_table.h"
#include "storage/catalog.h"
#include "storage/tuple.h"

namespace dcdatalog {

/// Everything a worker needs to execute rule pipelines: shared read-only
/// structures plus this worker's own replicas.
struct PipelineContext {
  const Catalog* catalog = nullptr;
  const BaseIndexSet* base_indexes = nullptr;
  /// This worker's replica partitions, indexed by replica id.
  const std::vector<std::unique_ptr<RecursiveTable>>* replicas = nullptr;
  /// Scan relations resolved once per rule by PreparePipeline, indexed by
  /// step. The catalog registry is lock-guarded, so per-tuple Find calls
  /// from the pipeline would put a mutex on the hot path (and trip the
  /// tools/lint hot-path rule); steps read this cache instead.
  std::vector<const Relation*> scan_rels;
};

/// Resolves `rule`'s kScanBase / kAntiJoinScan relations from the catalog
/// into ctx->scan_rels. Must run once before executing the rule's pipeline
/// with this context; rules without scan steps clear the cache cheaply.
void PreparePipeline(const PhysicalRule& rule, PipelineContext* ctx);

// --- Per-tuple step semantics ----------------------------------------------
// Residual checks and bindings for one matched tuple, in the columnar
// layout: register r of lane `lane` lives at regs[r * stride + lane].

/// Applies a step's residual checks to a matched tuple and, on success,
/// binds its output columns into registers. Returns false on any mismatch.
inline bool ApplyChecksAndBindStrided(const Step& step, TupleRef tuple,
                                      uint64_t* regs, uint64_t stride,
                                      uint32_t lane) {
  for (const ConstCheck& c : step.const_checks) {
    if (tuple[c.col] != c.word) return false;
  }
  // Outputs bind only freshly allocated registers, so writing them before
  // the equality checks is safe — and necessary for repeated variables
  // within one atom (q(Y, Y)), where the check compares against the
  // just-bound first occurrence.
  for (const OutputBinding& b : step.outputs) {
    regs[b.reg * stride + lane] = tuple[b.col];
  }
  for (const EqCheck& c : step.eq_checks) {
    if (tuple[c.col] != regs[c.reg * stride + lane]) return false;
  }
  return true;
}

/// Checks whether a tuple matches a step's const and eq checks WITHOUT
/// binding outputs — the anti-join witness test. Exits at the first
/// mismatch.
inline bool StepChecksMatch(const Step& step, TupleRef tuple,
                            const uint64_t* regs, uint64_t stride,
                            uint32_t lane) {
  for (const ConstCheck& c : step.const_checks) {
    if (tuple[c.col] != c.word) return false;
  }
  for (const EqCheck& c : step.eq_checks) {
    if (tuple[c.col] != regs[c.reg * stride + lane]) return false;
  }
  return true;
}

/// Applies the driving scan's const checks, output bindings and eq checks
/// for one driving tuple. Returns false when the tuple is rejected.
inline bool ApplyDrivingScanStrided(const PhysicalRule& rule, TupleRef driving,
                                    uint64_t* regs, uint64_t stride,
                                    uint32_t lane) {
  for (const ConstCheck& c : rule.scan_const_checks) {
    if (driving[c.col] != c.word) return false;
  }
  for (const OutputBinding& b : rule.scan_outputs) {
    regs[b.reg * stride + lane] = driving[b.col];
  }
  // Eq checks on the driving scan handle repeated variables within the
  // atom, e.g. p(X, X): the first occurrence binds, later ones compare.
  for (const EqCheck& c : rule.scan_eq_checks) {
    if (driving[c.col] != regs[c.reg * stride + lane]) return false;
  }
  return true;
}

/// Lanes per driving batch. 256 keeps one level's register banks (num_regs
/// × 256 × 8 B) and selection vector comfortably inside L1/L2 for typical
/// rules while amortizing per-batch overhead and giving the probe prefetch
/// pipeline enough lanes to cover a DRAM latency many times over.
inline constexpr uint32_t kBatchPipelineLanes = 256;

/// Probe-slot prefetch distance within a batch probe pass — the same
/// discipline RecursiveTable::MergeBatch proved out: far enough ahead that
/// the bucket line arrives from DRAM before the probe pass reaches it, near
/// enough that it is still resident.
inline constexpr uint32_t kBatchPrefetchDistance = 8;

/// Non-allocating batch emission sink: receives a whole output batch of
/// wire tuples (`count` tuples of `wire_arity` words each, packed densely)
/// after the executor evaluated the head's wire expressions for every
/// surviving lane. The engine points this at Distributor::EmitBatch.
struct BatchEmitSink {
  using Fn = void (*)(void* ctx, const HeadSpec& head, const uint64_t* wires,
                      uint32_t count, uint32_t wire_arity);
  Fn fn = nullptr;
  void* ctx = nullptr;
};

/// Vectorized batch-at-a-time pipeline executor, the only rule executor:
/// the workers run every rule through it, and so does the stamp-ordered
/// delete (core/delete.h: the removed rows in batches, and one single-row
/// batch per fact it checks or invalidates).
///
/// Driving tuples are gathered into fixed-size batches of
/// kBatchPipelineLanes rows. Registers are columnar banks — register r of
/// lane l lives at regs[r * kBatchPipelineLanes + l] — threaded through the
/// step pipeline together with a selection vector of live lane ids.
/// Non-expanding steps (filter/bind/anti-join) run as tight loops over the
/// selection, compacting it in place; expanding steps (probes and scans,
/// classified by the planner via Step::expanding) gather all surviving probe
/// keys up front, prefetch probe slots kBatchPrefetchDistance lanes ahead,
/// and scatter matches into the next pipeline level's banks — flushing
/// downstream in full batches whenever a probe's fan-out overfills a level.
///
/// One instance per worker, reused across rules and iterations: Begin only
/// grows the level storage, so steady-state batches never allocate.
class BatchPipelineRunner {
 public:
  BatchPipelineRunner() = default;

  /// Starts executing `rule` with `ctx` (PreparePipeline must have run for
  /// this rule) and the emission sink. Sizes per-level banks and the wire
  /// staging to the rule; allocation is growth-only across rules.
  void Begin(const PhysicalRule& rule, const PipelineContext* ctx,
             BatchEmitSink emit);

  /// Feeds one driving tuple (delta row or base-relation row). Applies the
  /// driving scan's checks immediately; admitted rows fill the level-0
  /// banks, and a full batch runs the step pipeline.
  void Push(TupleRef driving);

  /// Runs the partial final batch. Call once after the last Push.
  void Finish();

  /// Executes a unit-driven rule (no body atoms) as a single-lane batch.
  void RunUnit(const PhysicalRule& rule, const PipelineContext* ctx,
               BatchEmitSink emit);

  /// Driving batches executed (including partial final batches).
  uint64_t batches() const { return batches_; }
  /// Driving lanes admitted into batches after the driving scan's checks
  /// (unit rules contribute their single synthetic lane).
  uint64_t rows_selected() const { return rows_selected_; }

 private:
  /// One pipeline level: the columnar register banks plus selection state.
  /// Level 0 holds the driving batch; each expanding step scatters into the
  /// next level. `lanes` counts materialized lanes; `sel`/`sel_size` is the
  /// subset still live after filtering. Probe keys are per-level scratch
  /// because an in-flight probe's key array must survive downstream flushes
  /// that run deeper steps (which gather keys of their own).
  struct Level {
    std::vector<uint64_t> regs;  // num_regs banks of kBatchPipelineLanes.
    std::vector<uint32_t> sel;
    std::vector<uint64_t> keys;
    uint32_t lanes = 0;
    uint32_t sel_size = 0;
  };

  void RunBatch();
  /// Makes all of `level_[depth]`'s lanes live and runs steps from
  /// step_idx; resets the level's lane count afterwards.
  void FlushLevel(size_t step_idx, uint32_t depth);
  void RunSteps(size_t step_idx, uint32_t depth);
  void RunExpanding(size_t step_idx, uint32_t depth);
  void RunFilter(const Step& step, Level& lv);
  void RunBind(const Step& step, Level& lv);
  void RunAntiJoin(const Step& step, size_t step_idx, Level& lv);
  void EmitLevel(uint32_t depth);

  /// Copies the step's live-after registers of `lane` into the next free
  /// lane of `out` (columnar strided copy). The carry list is the planner's
  /// Step::carry_regs — registers dead downstream of the scattering step
  /// are never moved.
  void CopyLane(const Level& in, uint32_t lane, Level* out, const int* carry,
                uint32_t carry_n) const {
    const uint32_t olane = out->lanes;
    for (uint32_t i = 0; i < carry_n; ++i) {
      const size_t r = static_cast<size_t>(carry[i]);
      out->regs[r * kBatchPipelineLanes + olane] =
          in.regs[r * kBatchPipelineLanes + lane];
    }
  }

  const PhysicalRule* rule_ = nullptr;
  const PipelineContext* ctx_ = nullptr;
  BatchEmitSink emit_;
  uint32_t num_regs_ = 0;

  std::vector<Level> level_;
  /// Wire-tuple staging for one output batch: kBatchPipelineLanes tuples of
  /// the widest head seen (a check version's packed body facts can exceed
  /// kMaxWireWords).
  std::vector<uint64_t> wire_batch_;

  uint64_t batches_ = 0;
  uint64_t rows_selected_ = 0;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_BATCH_PIPELINE_H_
