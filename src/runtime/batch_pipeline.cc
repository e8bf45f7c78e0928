#include "runtime/batch_pipeline.h"

#include "common/hot_path.h"
#include "common/logging.h"
#include "common/value.h"
#include "runtime/expr_eval.h"
#include "runtime/message.h"

namespace dcdatalog {
namespace {

constexpr uint32_t kLanes = kBatchPipelineLanes;

/// True when the operand is a plain integer register or constant — the
/// shapes the branch-light filter loop handles without the recursive
/// expression evaluator.
bool SimpleIntOperand(const CompiledExpr& e) {
  return (e.op == ExprOp::kVar || e.op == ExprOp::kConst) &&
         e.type == ColumnType::kInt;
}

inline bool CmpInt(CmpOp op, int64_t a, int64_t b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

void BatchPipelineRunner::Begin(const PhysicalRule& rule,
                                const PipelineContext* ctx,
                                BatchEmitSink emit) {
  rule_ = &rule;
  ctx_ = ctx;
  emit_ = emit;
  num_regs_ = rule.num_regs;

  // Growth-only sizing: levels and banks expand to the widest rule seen and
  // stay there, so steady-state iterations never allocate.
  const size_t depths = rule.steps.size() + 1;
  if (level_.size() < depths) level_.resize(depths);
  const size_t bank_words = static_cast<size_t>(num_regs_) * kLanes;
  for (size_t d = 0; d < depths; ++d) {
    Level& lv = level_[d];
    if (lv.regs.size() < bank_words) lv.regs.resize(bank_words);
    if (lv.sel.size() < kLanes) lv.sel.resize(kLanes);
    if (lv.keys.size() < kLanes) lv.keys.resize(kLanes);
    lv.lanes = 0;
    lv.sel_size = 0;
  }
  const size_t wire_words = static_cast<size_t>(kLanes) * kMaxWireWords;
  if (wire_batch_.size() < wire_words) wire_batch_.resize(wire_words);
}

DCD_HOT_ROOT void BatchPipelineRunner::Push(TupleRef driving) {
  Level& lv = level_[0];
  if (ApplyDrivingScanStrided(*rule_, driving, lv.regs.data(), kLanes,
                              lv.lanes)) {
    if (++lv.lanes == kLanes) RunBatch();
  }
}

DCD_HOT_ROOT void BatchPipelineRunner::Finish() { RunBatch(); }

void BatchPipelineRunner::RunUnit(const PhysicalRule& rule,
                                  const PipelineContext* ctx,
                                  BatchEmitSink emit) {
  DCD_DCHECK(rule.driving_is_unit);
  Begin(rule, ctx, emit);
  level_[0].lanes = 1;  // One synthetic lane; steps bind every register.
  RunBatch();
}

DCD_HOT_ROOT void BatchPipelineRunner::RunBatch() {
  Level& lv = level_[0];
  if (lv.lanes == 0) return;
  ++batches_;
  rows_selected_ += lv.lanes;
  FlushLevel(0, 0);
}

void BatchPipelineRunner::FlushLevel(size_t step_idx, uint32_t depth) {
  Level& lv = level_[depth];
  lv.sel_size = lv.lanes;
  for (uint32_t i = 0; i < lv.lanes; ++i) lv.sel[i] = i;
  RunSteps(step_idx, depth);
  lv.lanes = 0;
}

void BatchPipelineRunner::RunSteps(size_t step_idx, uint32_t depth) {
  // Non-expanding steps work level_[depth]'s selection in place, so they
  // chain iteratively; an expanding step recurses into the next level.
  while (step_idx < rule_->steps.size()) {
    const Step& step = rule_->steps[step_idx];
    if (step.expanding) {
      RunExpanding(step_idx, depth);
      return;
    }
    Level& lv = level_[depth];
    switch (step.kind) {
      case StepKind::kFilter:
        RunFilter(step, lv);
        break;
      case StepKind::kBind:
        RunBind(step, lv);
        break;
      case StepKind::kAntiJoinIndex:
      case StepKind::kAntiJoinScan:
        RunAntiJoin(step, step_idx, lv);
        break;
      default:
        DCD_CHECK(false);  // Expanding kinds handled above.
    }
    if (lv.sel_size == 0) return;
    ++step_idx;
  }
  EmitLevel(depth);
}

void BatchPipelineRunner::RunExpanding(size_t step_idx, uint32_t depth) {
  const Step& step = rule_->steps[step_idx];
  Level& in = level_[depth];
  Level& out = level_[depth + 1];
  out.lanes = 0;
  const uint32_t n = in.sel_size;
  const int* carry = step.carry_regs.data();
  const uint32_t carry_n = static_cast<uint32_t>(step.carry_regs.size());

  if (step.kind == StepKind::kScanBase) {
    // Nested-loop fallback: no key, no prefetch — scan the whole relation
    // per live lane.
    const Relation* rel = ctx_->scan_rels[step_idx];
    DCD_CHECK(rel != nullptr);
    const uint64_t rows = rel->size();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t lane = in.sel[i];
      for (uint64_t r = 0; r < rows; ++r) {
        CopyLane(in, lane, &out, carry, carry_n);
        if (ApplyChecksAndBindStrided(step, rel->Row(r), out.regs.data(),
                                      kLanes, out.lanes)) {
          if (++out.lanes == kLanes) FlushLevel(step_idx + 1, depth + 1);
        }
      }
    }
    if (out.lanes > 0) FlushLevel(step_idx + 1, depth + 1);
    return;
  }

  const bool recursive = step.kind == StepKind::kProbeRecursive;
  const RecursiveTable* table =
      recursive ? (*ctx_->replicas)[step.replica_id].get() : nullptr;
  const auto on_match = [&](uint32_t lane, TupleRef row) {
    CopyLane(in, lane, &out, carry, carry_n);
    if (ApplyChecksAndBindStrided(step, row, out.regs.data(), kLanes,
                                  out.lanes)) {
      if (++out.lanes == kLanes) FlushLevel(step_idx + 1, depth + 1);
    }
  };

  // Hash probes (base index or replica join index): gather every surviving
  // key up front (tight columnar loop), then probe with slots prefetched
  // kBatchPrefetchDistance lanes ahead so the dependent bucket loads
  // overlap instead of serializing. Keys live in the INPUT level's
  // scratch: a downstream flush may run a deeper probe that gathers keys
  // of its own, and per-level storage keeps this pass's keys intact
  // across it.
  uint64_t* keys = in.keys.data();
  if (step.probe_is_const) {
    for (uint32_t i = 0; i < n; ++i) keys[i] = step.probe_const;
  } else {
    const uint64_t* kcol =
        in.regs.data() + static_cast<size_t>(step.probe_reg) * kLanes;
    for (uint32_t i = 0; i < n; ++i) keys[i] = kcol[in.sel[i]];
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (i + kBatchPrefetchDistance < n) {
      const uint64_t ahead = keys[i + kBatchPrefetchDistance];
      if (recursive) {
        table->PrefetchJoin(ahead);
      } else {
        ctx_->base_indexes->Prefetch(step.base_index_id, ahead);
      }
    }
    const uint32_t lane = in.sel[i];
    const uint64_t key = keys[i];
    if (recursive) {
      table->ForEachJoinMatch(key, [&](TupleRef r) { on_match(lane, r); });
    } else {
      ctx_->base_indexes->ForEachMatch(step.base_index_id, key,
                                       [&](TupleRef r) { on_match(lane, r); });
    }
  }
  if (out.lanes > 0) FlushLevel(step_idx + 1, depth + 1);
}

void BatchPipelineRunner::RunFilter(const Step& step, Level& lv) {
  uint32_t out = 0;
  const uint32_t n = lv.sel_size;
  const uint64_t* bank = lv.regs.data();
  if (SimpleIntOperand(step.lhs) && SimpleIntOperand(step.rhs)) {
    // Branch-light selection loop for the dominant var/const integer
    // comparison: read the columns directly, keep the lane via arithmetic.
    const uint64_t* lcol =
        step.lhs.op == ExprOp::kVar
            ? bank + static_cast<size_t>(step.lhs.reg) * kLanes
            : nullptr;
    const uint64_t* rcol =
        step.rhs.op == ExprOp::kVar
            ? bank + static_cast<size_t>(step.rhs.reg) * kLanes
            : nullptr;
    const int64_t lconst = IntFromWord(step.lhs.const_word);
    const int64_t rconst = IntFromWord(step.rhs.const_word);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t lane = lv.sel[i];
      const int64_t a = lcol != nullptr ? IntFromWord(lcol[lane]) : lconst;
      const int64_t b = rcol != nullptr ? IntFromWord(rcol[lane]) : rconst;
      lv.sel[out] = lane;
      out += CmpInt(step.cmp, a, b) ? 1 : 0;
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t lane = lv.sel[i];
      lv.sel[out] = lane;
      out += EvalCompareLane(step.cmp, step.lhs, step.rhs, bank, kLanes, lane)
                 ? 1
                 : 0;
    }
  }
  lv.sel_size = out;
}

void BatchPipelineRunner::RunBind(const Step& step, Level& lv) {
  const uint32_t n = lv.sel_size;
  uint64_t* bank = lv.regs.data();
  uint64_t* dst = bank + static_cast<size_t>(step.bind_reg) * kLanes;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t lane = lv.sel[i];
    dst[lane] = EvalExprLane(step.lhs, bank, kLanes, lane);
  }
}

void BatchPipelineRunner::RunAntiJoin(const Step& step, size_t step_idx,
                                      Level& lv) {
  uint32_t out = 0;
  const uint32_t n = lv.sel_size;
  const uint64_t* bank = lv.regs.data();
  if (step.kind == StepKind::kAntiJoinIndex) {
    uint64_t* keys = lv.keys.data();
    if (step.probe_is_const) {
      for (uint32_t i = 0; i < n; ++i) keys[i] = step.probe_const;
    } else {
      const uint64_t* kcol =
          bank + static_cast<size_t>(step.probe_reg) * kLanes;
      for (uint32_t i = 0; i < n; ++i) keys[i] = kcol[lv.sel[i]];
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (i + kBatchPrefetchDistance < n) {
        ctx_->base_indexes->Prefetch(step.base_index_id,
                                     keys[i + kBatchPrefetchDistance]);
      }
      const uint32_t lane = lv.sel[i];
      bool found = false;
      ctx_->base_indexes->ForEachMatch(
          step.base_index_id, keys[i], [&](TupleRef row) {
            found = StepChecksMatch(step, row, bank, kLanes, lane);
            return !found;  // Stop at the first witness.
          });
      lv.sel[out] = lane;
      out += found ? 0 : 1;
    }
  } else {
    const Relation* rel = ctx_->scan_rels[step_idx];
    DCD_CHECK(rel != nullptr);
    const uint64_t rows = rel->size();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t lane = lv.sel[i];
      bool found = false;
      for (uint64_t r = 0; r < rows && !found; ++r) {
        found = StepChecksMatch(step, rel->Row(r), bank, kLanes, lane);
      }
      lv.sel[out] = lane;
      out += found ? 0 : 1;
    }
  }
  lv.sel_size = out;
}

void BatchPipelineRunner::EmitLevel(uint32_t depth) {
  const Level& lv = level_[depth];
  if (lv.sel_size == 0) return;
  const HeadSpec& head = rule_->head;
  const uint32_t wire_arity = static_cast<uint32_t>(head.wire_exprs.size());
  // Build wire tuples for the whole surviving batch before routing: one
  // dense staging area, one EmitBatch call. Column-at-a-time over the wire
  // expressions, with tight gather loops for the dominant plain-variable
  // and constant heads; only computed expressions pay the recursive
  // evaluator per lane.
  uint64_t* wires = wire_batch_.data();
  const uint64_t* bank = lv.regs.data();
  const uint32_t n = lv.sel_size;
  for (uint32_t c = 0; c < wire_arity; ++c) {
    const CompiledExpr& e = head.wire_exprs[c];
    uint64_t* w = wires + c;
    if (e.op == ExprOp::kVar) {
      const uint64_t* col = bank + static_cast<size_t>(e.reg) * kLanes;
      for (uint32_t i = 0; i < n; ++i) {
        w[static_cast<size_t>(i) * wire_arity] = col[lv.sel[i]];
      }
    } else if (e.op == ExprOp::kConst) {
      for (uint32_t i = 0; i < n; ++i) {
        w[static_cast<size_t>(i) * wire_arity] = e.const_word;
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        w[static_cast<size_t>(i) * wire_arity] =
            EvalExprLane(e, bank, kLanes, lv.sel[i]);
      }
    }
  }
  emit_.fn(emit_.ctx, head, wires, n, wire_arity);
}

}  // namespace dcdatalog
