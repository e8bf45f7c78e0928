#ifndef DCDATALOG_RUNTIME_EXPR_EVAL_H_
#define DCDATALOG_RUNTIME_EXPR_EVAL_H_

#include <cstdint>

#include "common/value.h"
#include "planner/physical_plan.h"

namespace dcdatalog {

/// Evaluates a compiled expression for one lane of the batch executor's
/// columnar register banks: register r of lane `lane` is
/// banks[r * stride + lane]. The result is a raw word whose interpretation
/// is `expr.type` (int64 or double bits).
uint64_t EvalExprLane(const CompiledExpr& expr, const uint64_t* banks,
                      uint64_t stride, uint32_t lane);

/// Evaluates a comparison between two compiled expressions for one lane.
/// Numeric operands are compared in double space when either side is
/// double; strings compare by dictionary id (equality is exact; ordering is
/// by id).
bool EvalCompareLane(CmpOp op, const CompiledExpr& lhs,
                     const CompiledExpr& rhs, const uint64_t* banks,
                     uint64_t stride, uint32_t lane);

}  // namespace dcdatalog

#endif  // DCDATALOG_RUNTIME_EXPR_EVAL_H_
