#include "runtime/expr_eval.h"

#include "common/logging.h"

namespace dcdatalog {
namespace {

double AsDouble(const CompiledExpr& e, uint64_t word) {
  return e.type == ColumnType::kDouble
             ? DoubleFromWord(word)
             : static_cast<double>(IntFromWord(word));
}

}  // namespace

uint64_t EvalExprLane(const CompiledExpr& expr, const uint64_t* banks,
                      uint64_t stride, uint32_t lane) {
  switch (expr.op) {
    case ExprOp::kVar:
      return banks[expr.reg * stride + lane];
    case ExprOp::kConst:
      return expr.const_word;
    case ExprOp::kToDouble: {
      uint64_t inner = EvalExprLane(*expr.lhs, banks, stride, lane);
      return WordFromDouble(AsDouble(*expr.lhs, inner));
    }
    case ExprOp::kNeg: {
      uint64_t inner = EvalExprLane(*expr.lhs, banks, stride, lane);
      if (expr.type == ColumnType::kDouble) {
        return WordFromDouble(-AsDouble(*expr.lhs, inner));
      }
      return WordFromInt(-IntFromWord(inner));
    }
    default: {
      const uint64_t l = EvalExprLane(*expr.lhs, banks, stride, lane);
      const uint64_t r = EvalExprLane(*expr.rhs, banks, stride, lane);
      if (expr.type == ColumnType::kDouble) {
        const double a = AsDouble(*expr.lhs, l);
        const double b = AsDouble(*expr.rhs, r);
        switch (expr.op) {
          case ExprOp::kAdd:
            return WordFromDouble(a + b);
          case ExprOp::kSub:
            return WordFromDouble(a - b);
          case ExprOp::kMul:
            return WordFromDouble(a * b);
          case ExprOp::kDiv:
            return WordFromDouble(a / b);
          default:
            break;
        }
      } else {
        const int64_t a = IntFromWord(l);
        const int64_t b = IntFromWord(r);
        switch (expr.op) {
          case ExprOp::kAdd:
            return WordFromInt(a + b);
          case ExprOp::kSub:
            return WordFromInt(a - b);
          case ExprOp::kMul:
            return WordFromInt(a * b);
          case ExprOp::kDiv:
            // Integer division; division by zero yields 0 rather than UB —
            // a deliberate, documented total semantics for rule arithmetic.
            return WordFromInt(b == 0 ? 0 : a / b);
          default:
            break;
        }
      }
      DCD_CHECK(false);
      return 0;
    }
  }
}

bool EvalCompareLane(CmpOp op, const CompiledExpr& lhs,
                     const CompiledExpr& rhs, const uint64_t* banks,
                     uint64_t stride, uint32_t lane) {
  const uint64_t l = EvalExprLane(lhs, banks, stride, lane);
  const uint64_t r = EvalExprLane(rhs, banks, stride, lane);
  if (lhs.type == ColumnType::kString || rhs.type == ColumnType::kString) {
    switch (op) {
      case CmpOp::kEq:
        return l == r;
      case CmpOp::kNe:
        return l != r;
      case CmpOp::kLt:
        return l < r;
      case CmpOp::kLe:
        return l <= r;
      case CmpOp::kGt:
        return l > r;
      case CmpOp::kGe:
        return l >= r;
    }
  }
  if (lhs.type == ColumnType::kDouble || rhs.type == ColumnType::kDouble) {
    const double a = AsDouble(lhs, l);
    const double b = AsDouble(rhs, r);
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
  }
  const int64_t a = IntFromWord(l);
  const int64_t b = IntFromWord(r);
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

}  // namespace dcdatalog
