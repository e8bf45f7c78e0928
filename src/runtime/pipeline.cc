#include "runtime/pipeline.h"

#include "common/hot_path.h"
#include "common/logging.h"
#include "runtime/expr_eval.h"

namespace dcdatalog {
namespace {

DCD_HOT_ROOT void ExecuteFrom(const PhysicalRule& rule,
                              const PipelineContext& ctx, size_t step_idx,
                              const EmitSink& emit) {
  if (step_idx == rule.steps.size()) {
    emit(ctx.regs);
    return;
  }
  const Step& step = rule.steps[step_idx];
  switch (step.kind) {
    case StepKind::kFilter:
      if (EvalCompare(step.cmp, step.lhs, step.rhs, ctx.regs)) {
        ExecuteFrom(rule, ctx, step_idx + 1, emit);
      }
      return;
    case StepKind::kBind:
      ctx.regs[step.bind_reg] = EvalExpr(step.lhs, ctx.regs);
      ExecuteFrom(rule, ctx, step_idx + 1, emit);
      return;
    case StepKind::kProbeBaseHash: {
      const uint64_t key =
          step.probe_is_const ? step.probe_const : ctx.regs[step.probe_reg];
      ctx.base_indexes->ForEachMatch(
          step.base_index_id, key, [&](TupleRef row) {
            if (ApplyChecksAndBindStrided(step, row, ctx.regs, 1, 0)) {
              ExecuteFrom(rule, ctx, step_idx + 1, emit);
            }
          });
      return;
    }
    case StepKind::kScanBase: {
      const Relation* rel = ctx.scan_rels[step_idx];
      DCD_CHECK(rel != nullptr);
      const uint64_t n = rel->size();
      for (uint64_t r = 0; r < n; ++r) {
        if (ApplyChecksAndBindStrided(step, rel->Row(r), ctx.regs, 1, 0)) {
          ExecuteFrom(rule, ctx, step_idx + 1, emit);
        }
      }
      return;
    }
    case StepKind::kAntiJoinIndex: {
      const uint64_t key =
          step.probe_is_const ? step.probe_const : ctx.regs[step.probe_reg];
      bool found = false;
      // The bool-returning callback stops the index iteration at the first
      // witness; StepChecksMatch itself exits at the first failing check.
      ctx.base_indexes->ForEachMatch(
          step.base_index_id, key, [&](TupleRef row) {
            found = StepChecksMatch(step, row, ctx.regs, 1, 0);
            return !found;
          });
      if (!found) ExecuteFrom(rule, ctx, step_idx + 1, emit);
      return;
    }
    case StepKind::kAntiJoinScan: {
      const Relation* rel = ctx.scan_rels[step_idx];
      DCD_CHECK(rel != nullptr);
      const uint64_t n = rel->size();
      bool found = false;
      for (uint64_t r = 0; r < n && !found; ++r) {
        found = StepChecksMatch(step, rel->Row(r), ctx.regs, 1, 0);
      }
      if (!found) ExecuteFrom(rule, ctx, step_idx + 1, emit);
      return;
    }
    case StepKind::kProbeRecursive: {
      const uint64_t key = ctx.regs[step.probe_reg];
      const RecursiveTable& table = *(*ctx.replicas)[step.replica_id];
      table.ForEachJoinMatch(key, [&](TupleRef row) {
        if (ApplyChecksAndBindStrided(step, row, ctx.regs, 1, 0)) {
          ExecuteFrom(rule, ctx, step_idx + 1, emit);
        }
      });
      return;
    }
  }
}

}  // namespace

void PreparePipeline(const PhysicalRule& rule, PipelineContext* ctx) {
  ctx->scan_rels.clear();
  bool any = false;
  for (const Step& step : rule.steps) {
    if (step.kind == StepKind::kScanBase ||
        step.kind == StepKind::kAntiJoinScan) {
      any = true;
      break;
    }
  }
  if (!any) return;  // Keep the common index-join case allocation-free.
  ctx->scan_rels.resize(rule.steps.size(), nullptr);
  for (size_t i = 0; i < rule.steps.size(); ++i) {
    const Step& step = rule.steps[i];
    if (step.kind != StepKind::kScanBase &&
        step.kind != StepKind::kAntiJoinScan) {
      continue;
    }
    const Relation* rel = ctx->catalog->Find(step.relation);
    DCD_CHECK(rel != nullptr);
    ctx->scan_rels[i] = rel;
  }
}

DCD_HOT_ROOT void RunPipelineForTuple(const PhysicalRule& rule,
                                      const PipelineContext& ctx,
                                      TupleRef driving,
                                      const EmitSink& emit) {
  if (!ApplyDrivingScanStrided(rule, driving, ctx.regs, 1, 0)) return;
  ExecuteFrom(rule, ctx, 0, emit);
}

void BuildWireTuple(const HeadSpec& head, const uint64_t* regs,
                    uint64_t* wire) {
  for (size_t i = 0; i < head.wire_exprs.size(); ++i) {
    wire[i] = EvalExpr(head.wire_exprs[i], regs);
  }
}

}  // namespace dcdatalog
