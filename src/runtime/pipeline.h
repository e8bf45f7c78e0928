#ifndef DCDATALOG_RUNTIME_PIPELINE_H_
#define DCDATALOG_RUNTIME_PIPELINE_H_

#include <memory>
#include <vector>

#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/recursive_table.h"
#include "storage/catalog.h"

namespace dcdatalog {

/// Everything a worker needs to execute rule pipelines: shared read-only
/// structures plus this worker's own replicas and register scratch.
struct PipelineContext {
  const Catalog* catalog = nullptr;
  const BaseIndexSet* base_indexes = nullptr;
  /// This worker's replica partitions, indexed by replica id.
  const std::vector<std::unique_ptr<RecursiveTable>>* replicas = nullptr;
  /// Register scratch, at least PhysicalRule::num_regs wide, for
  /// RunPipelineForTuple (the batch executor carries its own columnar
  /// banks).
  uint64_t* regs = nullptr;
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

/// Non-allocating emission callback: a plain function pointer plus opaque
/// context. Replaces the old std::function EmitFn — a capturing
/// std::function can heap-allocate and always calls through a vtable-like
/// thunk, neither of which belongs on the per-derivation hot path. The
/// callee evaluates the head's wire expressions and routes the tuple.
struct EmitSink {
  using Fn = void (*)(void* ctx, const uint64_t* regs);
  Fn fn = nullptr;
  void* ctx = nullptr;

  void operator()(const uint64_t* regs) const { fn(ctx, regs); }
};

// --- Shared step-compilation layer ----------------------------------------
// The batch executor and RunPipelineForTuple (the delete path's proof
// search) apply the same residual-check/bind semantics per matched tuple;
// the only difference is the register layout. These helpers take the
// strided form (register r of lane `lane` lives at regs[r * stride + lane]);
// RunPipelineForTuple passes stride = 1, lane = 0 and gets the flat layout.

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

/// Executes `rule`'s step pipeline for one driving tuple (a delta row or a
/// scanned base row): applies the driving scan's bindings and checks, then
/// runs probes/filters/binds depth-first, calling `emit` per derivation.
void RunPipelineForTuple(const PhysicalRule& rule, const PipelineContext& ctx,
                         TupleRef driving, const EmitSink& emit);

/// Evaluates the head's wire expressions into `wire` (wire_arity words).
void BuildWireTuple(const HeadSpec& head, const uint64_t* regs,
                    uint64_t* wire);

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_PIPELINE_H_
