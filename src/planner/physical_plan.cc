#include "planner/physical_plan.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace dcdatalog {
namespace {

/// Maximum wire arity the SPSC message format carries (one word is the
/// predicate/replica tag; see core/message.h).
constexpr uint32_t kMaxWireArity = 7;

/// Collects the scans of a left-deep tree in join order.
void CollectScans(const LogicalOp* node, std::vector<const LogicalOp*>* out) {
  if (node == nullptr) return;
  if (node->kind == LogicalOpKind::kScan) {
    out->push_back(node);
    return;
  }
  for (const auto& child : node->children) CollectScans(child.get(), out);
}

/// Marks every register a compiled expression reads.
void MarkExprRegs(const CompiledExpr& e, std::vector<char>* need) {
  if (e.op == ExprOp::kVar && e.reg >= 0) (*need)[e.reg] = 1;
  if (e.lhs != nullptr) MarkExprRegs(*e.lhs, need);
  if (e.rhs != nullptr) MarkExprRegs(*e.rhs, need);
}

/// First column of `atom` holding variable `v`, or -1.
int ColOfVar(const Atom& atom, const std::string& v) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (atom.args[i].IsVariable() && atom.args[i].var == v) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

AggSpec MakeAggSpec(const Program& program, const ProgramAnalysis& analysis,
                    const std::string& pred) {
  const PredicateInfo& info = analysis.predicate(pred);
  AggSpec spec;
  spec.stored_arity = info.arity;
  // Find the (validated, consistent) aggregate signature from any rule.
  AggFunc func = AggFunc::kNone;
  for (const Rule& rule : program.rules) {
    if (rule.head.predicate != pred) continue;
    for (const HeadArg& arg : rule.head.args) {
      if (arg.agg != AggFunc::kNone) func = arg.agg;
    }
    break;  // CheckAggregates guarantees all rules agree.
  }
  spec.func = func;
  if (func == AggFunc::kNone) {
    spec.group_arity = info.arity;
    spec.wire_arity = info.arity;
  } else {
    spec.group_arity = info.arity - 1;
    spec.wire_arity = info.arity + (func == AggFunc::kSum ? 1 : 0);
    spec.value_type = info.column_types[info.arity - 1];
  }
  return spec;
}

// Status-propagation helper local to this file.
#define DCD_RETURN_IF_ERROR_P(expr)           \
  do {                                        \
    ::dcdatalog::Status _s = (expr);          \
    if (!_s.ok()) return _s;                  \
  } while (false)

/// Compiles rule versions of one SCC; owns the register state per rule.
class RuleCompiler {
 public:
  RuleCompiler(const Program& program, const ProgramAnalysis& analysis,
               PhysicalPlan* plan, SccPlan* scc)
      : program_(program), analysis_(analysis), plan_(plan), scc_(scc) {}

  Result<PhysicalRule> Compile(const LogicalRulePlan& logical) {
    rule_ = &program_.rules[logical.rule_index];
    out_ = PhysicalRule();
    out_.rule_index = logical.rule_index;
    out_.delta_atom = logical.delta_atom;
    out_.is_update = logical.is_update;
    out_.is_check = logical.is_check;
    is_update_ = logical.is_update;
    is_check_ = logical.is_check;
    var_reg_.clear();
    reg_types_.clear();
    first_scan_ = true;

    // Pre-pass: find the scans, decide the driving partition column and
    // validate recursive-probe locality.
    std::vector<const LogicalOp*> scans;
    CollectScans(logical.root.get(), &scans);
    DCD_RETURN_IF_ERROR_P(AnalyzePartitioning(logical, scans));

    DCD_RETURN_IF_ERROR_P(CompileNode(logical.root.get()));
    for (const Atom& atom : logical.check_atoms) {
      DCD_ASSIGN_OR_RETURN(HeadSpec fact, CompileCheckAtom(atom));
      out_.check_atoms.push_back(std::move(fact));
    }
    out_.num_regs = static_cast<uint32_t>(reg_types_.size());
    out_.reg_types = reg_types_;

    // Batch-executor metadata: classify each step by whether it can fan out
    // (more than one output row per input lane). Probes and scans expand;
    // filters, binds and anti-joins are at most 1:1.
    for (Step& step : out_.steps) {
      switch (step.kind) {
        case StepKind::kProbeBaseHash:
        case StepKind::kScanBase:
        case StepKind::kProbeRecursive:
          step.expanding = true;
          out_.has_expanding_steps = true;
          break;
        case StepKind::kAntiJoinIndex:
        case StepKind::kAntiJoinScan:
        case StepKind::kFilter:
        case StepKind::kBind:
          step.expanding = false;
          break;
      }
    }

    // Backward liveness pass for the batch executor's lane scatters: for
    // every expanding step, the registers an output lane inherits from its
    // input lane are those live after the step (read by later steps or the
    // head) plus the step's own eq-checks, minus the registers its outputs
    // write. Registers dead downstream are never copied.
    {
      std::vector<char> need(reg_types_.size(), 0);
      for (const CompiledExpr& e : out_.head.wire_exprs) {
        MarkExprRegs(e, &need);
      }
      for (const HeadSpec& fact : out_.check_atoms) {
        for (const CompiledExpr& e : fact.wire_exprs) MarkExprRegs(e, &need);
      }
      for (size_t i = out_.steps.size(); i-- > 0;) {
        Step& step = out_.steps[i];
        if (step.expanding) {
          std::vector<char> carry = need;
          for (const EqCheck& c : step.eq_checks) carry[c.reg] = 1;
          for (const OutputBinding& b : step.outputs) carry[b.reg] = 0;
          step.carry_regs.clear();
          for (size_t r = 0; r < carry.size(); ++r) {
            if (carry[r]) step.carry_regs.push_back(static_cast<int>(r));
          }
        }
        // Liveness before the step: clear its writes, then mark its reads.
        switch (step.kind) {
          case StepKind::kProbeBaseHash:
          case StepKind::kScanBase:
          case StepKind::kProbeRecursive:
            for (const OutputBinding& b : step.outputs) need[b.reg] = 0;
            for (const EqCheck& c : step.eq_checks) need[c.reg] = 1;
            if (!step.probe_is_const && step.probe_reg >= 0) {
              need[step.probe_reg] = 1;
            }
            break;
          case StepKind::kAntiJoinIndex:
          case StepKind::kAntiJoinScan:
            for (const EqCheck& c : step.eq_checks) need[c.reg] = 1;
            if (!step.probe_is_const && step.probe_reg >= 0) {
              need[step.probe_reg] = 1;
            }
            break;
          case StepKind::kFilter:
            MarkExprRegs(step.lhs, &need);
            MarkExprRegs(step.rhs, &need);
            break;
          case StepKind::kBind:
            need[step.bind_reg] = 0;
            MarkExprRegs(step.lhs, &need);
            break;
        }
      }
    }
    return std::move(out_);
  }

 private:
  Status AnalyzePartitioning(const LogicalRulePlan& logical,
                             const std::vector<const LogicalOp*>& scans) {
    driving_partition_col_ = 0;
    driving_needs_locality_ = false;
    if (logical.delta_atom < 0) return Status::OK();

    const LogicalOp* driving = scans.empty() ? nullptr : scans.front();
    DCD_CHECK(driving != nullptr && driving->is_delta);
    const Atom& d_atom = driving->atom;

    // Recursive atoms probed later in the pipeline must be keyed by a
    // variable of the driving atom, and the driving delta must itself be
    // partitioned on that variable: tuples matching key k live in worker
    // H(k)'s partition, so the probing worker must be H(k) too.
    std::string locality_var;
    for (size_t s = 1; s < scans.size(); ++s) {
      const LogicalOp* scan = scans[s];
      if (!scan->is_recursive) continue;
      // Probe var: first variable of this atom shared with the driving atom.
      std::string probe_var;
      for (const Term& t : scan->atom.args) {
        if (t.IsVariable() && ColOfVar(d_atom, t.var) >= 0) {
          probe_var = t.var;
          break;
        }
      }
      if (probe_var.empty()) {
        return Status::Unsupported(
            "rule at line " + std::to_string(rule_->line) +
            ": recursive goal '" + scan->atom.ToString() +
            "' does not share a join variable with the delta goal, so the "
            "probe cannot stay partition-local");
      }
      if (!locality_var.empty() && locality_var != probe_var) {
        return Status::Unsupported(
            "rule at line " + std::to_string(rule_->line) +
            ": recursive goals require conflicting partition keys");
      }
      locality_var = probe_var;
    }

    if (!locality_var.empty()) {
      driving_partition_col_ =
          static_cast<uint32_t>(ColOfVar(d_atom, locality_var));
      driving_needs_locality_ = true;
    } else {
      // Free choice: prefer the first driving column whose variable also
      // appears in another atom (the join key), mirroring the paper's
      // partition-by-join-key policy.
      driving_partition_col_ = 0;
      for (size_t c = 0; c < d_atom.args.size(); ++c) {
        const Term& t = d_atom.args[c];
        if (!t.IsVariable()) continue;
        bool shared = false;
        for (size_t s = 1; s < scans.size(); ++s) {
          if (ColOfVar(scans[s]->atom, t.var) >= 0) shared = true;
        }
        if (shared) {
          driving_partition_col_ = static_cast<uint32_t>(c);
          break;
        }
      }
    }
    return Status::OK();
  }

  int AllocReg(ColumnType type) {
    reg_types_.push_back(type);
    return static_cast<int>(reg_types_.size()) - 1;
  }

  /// Registers (or finds) a replica and returns its id.
  int GetReplica(const std::string& pred, uint32_t col, bool needs_index) {
    for (size_t i = 0; i < scc_->replicas.size(); ++i) {
      ReplicaSpec& r = scc_->replicas[i];
      if (r.predicate == pred && r.partition_col == col) {
        r.needs_join_index = r.needs_join_index || needs_index;
        return static_cast<int>(i);
      }
    }
    scc_->replicas.push_back(ReplicaSpec{pred, col, needs_index});
    return static_cast<int>(scc_->replicas.size()) - 1;
  }

  int RequestBaseIndex(const std::string& rel, uint32_t col) {
    for (size_t i = 0; i < plan_->base_indexes.size(); ++i) {
      const BaseIndexReq& req = plan_->base_indexes[i];
      if (req.relation == rel && req.col == col) return static_cast<int>(i);
    }
    plan_->base_indexes.push_back(BaseIndexReq{rel, col});
    return static_cast<int>(plan_->base_indexes.size()) - 1;
  }

  ColumnType PredColType(const std::string& pred, size_t col) const {
    return analysis_.predicate(pred).column_types[col];
  }

  /// Splits an atom's columns into probe key, equality checks, constant
  /// checks, and fresh-variable outputs.
  void BindAtomColumns(const Atom& atom, int skip_col,
                       std::vector<OutputBinding>* outputs,
                       std::vector<EqCheck>* eq_checks,
                       std::vector<ConstCheck>* const_checks) {
    for (size_t c = 0; c < atom.args.size(); ++c) {
      if (static_cast<int>(c) == skip_col) continue;
      const Term& t = atom.args[c];
      switch (t.kind) {
        case TermKind::kWildcard:
          break;
        case TermKind::kConstant:
          const_checks->push_back(
              ConstCheck{static_cast<uint32_t>(c), t.constant.word});
          break;
        case TermKind::kVariable: {
          auto it = var_reg_.find(t.var);
          if (it != var_reg_.end()) {
            eq_checks->push_back(EqCheck{static_cast<uint32_t>(c), it->second});
          } else {
            int reg = AllocReg(PredColType(atom.predicate, c));
            var_reg_[t.var] = reg;
            outputs->push_back(OutputBinding{static_cast<uint32_t>(c), reg});
          }
          break;
        }
      }
    }
  }

  Status CompileNode(const LogicalOp* node) {
    if (node == nullptr) return Status::OK();
    switch (node->kind) {
      case LogicalOpKind::kProjectHead:
        if (!node->children.empty()) {
          DCD_RETURN_IF_ERROR_P(CompileNode(node->children[0].get()));
        } else {
          out_.driving_is_unit = true;
        }
        return CompileHead(node->head);
      case LogicalOpKind::kJoin:
        DCD_RETURN_IF_ERROR_P(CompileNode(node->children[0].get()));
        DCD_CHECK(node->children[1]->kind == LogicalOpKind::kScan);
        return EmitScan(node->children[1].get());
      case LogicalOpKind::kScan:
        return EmitScan(node);
      case LogicalOpKind::kAntiJoin:
        if (!node->children.empty()) {
          DCD_RETURN_IF_ERROR_P(CompileNode(node->children[0].get()));
        } else {
          out_.driving_is_unit = true;
        }
        return EmitAntiJoin(node->atom);
      case LogicalOpKind::kSelect:
        if (!node->children.empty()) {
          DCD_RETURN_IF_ERROR_P(CompileNode(node->children[0].get()));
        } else {
          out_.driving_is_unit = true;
        }
        return EmitFilter(node->constraint);
      case LogicalOpKind::kBind:
        if (!node->children.empty()) {
          DCD_RETURN_IF_ERROR_P(CompileNode(node->children[0].get()));
        } else {
          out_.driving_is_unit = true;
        }
        return EmitBind(node->constraint);
    }
    return Status::Internal("unreachable logical op kind");
  }

  Status EmitScan(const LogicalOp* scan) {
    const Atom& atom = scan->atom;
    if (first_scan_) {
      first_scan_ = false;
      out_.driving_relation = atom.predicate;
      if (scan->is_delta && !is_check_) {
        if (is_update_) {
          // Update versions drive a materialized relation's new rows, not a
          // replica δ. When a later step probes a recursive replica, the
          // driving rows must be processed by the worker owning the probe
          // key's partition; otherwise any worker may take any row.
          out_.update_partition_col =
              driving_needs_locality_
                  ? static_cast<int>(driving_partition_col_)
                  : -1;
        } else {
          out_.driving_replica =
              GetReplica(atom.predicate, driving_partition_col_,
                         /*needs_index=*/false);
        }
      }
      BindAtomColumns(atom, /*skip_col=*/-1, &out_.scan_outputs,
                      &out_.scan_eq_checks, &out_.scan_const_checks);
      return Status::OK();
    }

    // A probed (inner) scan: pick the probe column — the first column whose
    // value is already available.
    int probe_col = -1;
    int probe_reg = -1;
    bool probe_is_const = false;
    uint64_t probe_const = 0;
    for (size_t c = 0; c < atom.args.size(); ++c) {
      const Term& t = atom.args[c];
      if (t.IsVariable()) {
        auto it = var_reg_.find(t.var);
        if (it != var_reg_.end()) {
          probe_col = static_cast<int>(c);
          probe_reg = it->second;
          break;
        }
      } else if (t.kind == TermKind::kConstant) {
        probe_col = static_cast<int>(c);
        probe_is_const = true;
        probe_const = t.constant.word;
        break;
      }
    }

    Step step;
    step.relation = atom.predicate;
    if (scan->is_recursive) {
      if (probe_col < 0 || probe_is_const) {
        return Status::Unsupported(
            "rule at line " + std::to_string(rule_->line) +
            ": recursive goal must be probed through a shared variable");
      }
      step.kind = StepKind::kProbeRecursive;
      step.replica_id = GetReplica(atom.predicate,
                                   static_cast<uint32_t>(probe_col),
                                   /*needs_index=*/true);
    } else if (probe_col < 0) {
      step.kind = StepKind::kScanBase;  // Nested-loop join.
    } else {
      step.kind = StepKind::kProbeBaseHash;
      step.base_index_id =
          RequestBaseIndex(atom.predicate, static_cast<uint32_t>(probe_col));
    }
    step.probe_col = probe_col < 0 ? 0 : static_cast<uint32_t>(probe_col);
    step.probe_reg = probe_reg;
    step.probe_is_const = probe_is_const;
    step.probe_const = probe_const;
    BindAtomColumns(atom, probe_col, &step.outputs, &step.eq_checks,
                    &step.const_checks);
    out_.steps.push_back(std::move(step));
    return Status::OK();
  }

  /// Compiles a same-SCC body atom of a check version into one expression
  /// per column, rebuilding the body fact from the registers. Columns are
  /// raw words, exactly as a join's checks compare them (no coercion).
  Result<HeadSpec> CompileCheckAtom(const Atom& atom) {
    HeadSpec fact;
    fact.predicate = atom.predicate;
    fact.pred_id = scc_->PredIdOf(atom.predicate);
    for (const Term& t : atom.args) {
      CompiledExpr e;
      if (t.kind == TermKind::kConstant) {
        e.op = ExprOp::kConst;
        e.const_word = t.constant.word;
        e.type = t.constant.type;
      } else {
        auto it = t.IsVariable() ? var_reg_.find(t.var) : var_reg_.end();
        if (it == var_reg_.end()) {
          return Status::Unsupported(
              "rule at line " + std::to_string(rule_->line) + ": goal '" +
              atom.ToString() + "' is not bound by the head and the other "
              "SCCs' goals, so the rule has no check version");
        }
        e.op = ExprOp::kVar;
        e.reg = it->second;
        e.type = reg_types_[e.reg];
      }
      fact.wire_exprs.push_back(std::move(e));
    }
    return fact;
  }

  Status EmitAntiJoin(const Atom& atom) {
    // Stratification guarantees the negated predicate is materialized
    // before this SCC runs, so it is probed like a base relation. All
    // variables are bound (safety), so columns become equality checks; a
    // bound probe column turns the check into an index anti-probe.
    Step step;
    step.relation = atom.predicate;
    int probe_col = -1;
    for (size_t c = 0; c < atom.args.size(); ++c) {
      const Term& t = atom.args[c];
      if (t.kind == TermKind::kWildcard) continue;
      if (t.kind == TermKind::kConstant) {
        if (probe_col < 0) {
          probe_col = static_cast<int>(c);
          step.probe_is_const = true;
          step.probe_const = t.constant.word;
        } else {
          step.const_checks.push_back(
              ConstCheck{static_cast<uint32_t>(c), t.constant.word});
        }
        continue;
      }
      auto it = var_reg_.find(t.var);
      DCD_CHECK(it != var_reg_.end());
      if (probe_col < 0) {
        probe_col = static_cast<int>(c);
        step.probe_reg = it->second;
      } else {
        step.eq_checks.push_back(EqCheck{static_cast<uint32_t>(c), it->second});
      }
    }
    if (probe_col < 0) {
      // !p(_, _): succeeds only when p is empty.
      step.kind = StepKind::kAntiJoinScan;
    } else {
      step.kind = StepKind::kAntiJoinIndex;
      step.probe_col = static_cast<uint32_t>(probe_col);
      step.base_index_id =
          RequestBaseIndex(atom.predicate, static_cast<uint32_t>(probe_col));
    }
    out_.steps.push_back(std::move(step));
    return Status::OK();
  }

  Result<CompiledExpr> CompileExpr(const Expr& e) {
    CompiledExpr out;
    out.op = e.op;
    switch (e.op) {
      case ExprOp::kVar: {
        auto it = var_reg_.find(e.var);
        if (it == var_reg_.end()) {
          return Status::PlanError("variable '" + e.var +
                                   "' unbound during physical compilation");
        }
        out.reg = it->second;
        out.type = reg_types_[out.reg];
        return out;
      }
      case ExprOp::kConst:
        out.const_word = e.constant.word;
        out.type = e.constant.type;
        return out;
      case ExprOp::kNeg: {
        DCD_ASSIGN_OR_RETURN(CompiledExpr inner, CompileExpr(*e.lhs));
        out.type = inner.type;
        out.lhs = std::make_unique<CompiledExpr>(std::move(inner));
        return out;
      }
      case ExprOp::kToDouble:
        return Status::Internal("kToDouble cannot appear in source");
      default: {
        DCD_ASSIGN_OR_RETURN(CompiledExpr l, CompileExpr(*e.lhs));
        DCD_ASSIGN_OR_RETURN(CompiledExpr r, CompileExpr(*e.rhs));
        if (l.type == ColumnType::kString || r.type == ColumnType::kString) {
          return Status::InvalidArgument(
              "arithmetic on string values in rule at line " +
              std::to_string(rule_->line));
        }
        out.type = (l.type == ColumnType::kDouble ||
                    r.type == ColumnType::kDouble)
                       ? ColumnType::kDouble
                       : ColumnType::kInt;
        out.lhs = std::make_unique<CompiledExpr>(std::move(l));
        out.rhs = std::make_unique<CompiledExpr>(std::move(r));
        return out;
      }
    }
  }

  /// Wraps `e` with an int→double conversion when the target requires it.
  static CompiledExpr Coerce(CompiledExpr e, ColumnType target) {
    if (target != ColumnType::kDouble || e.type == ColumnType::kDouble) {
      return e;
    }
    CompiledExpr conv;
    conv.op = ExprOp::kToDouble;
    conv.type = ColumnType::kDouble;
    conv.lhs = std::make_unique<CompiledExpr>(std::move(e));
    return conv;
  }

  Status EmitFilter(const Constraint& c) {
    Step step;
    step.kind = StepKind::kFilter;
    step.cmp = c.op;
    DCD_ASSIGN_OR_RETURN(step.lhs, CompileExpr(*c.lhs));
    DCD_ASSIGN_OR_RETURN(step.rhs, CompileExpr(*c.rhs));
    out_.steps.push_back(std::move(step));
    return Status::OK();
  }

  Status EmitBind(const Constraint& c) {
    // One side is the fresh variable, the other the value expression.
    const Expr* var_side = nullptr;
    const Expr* expr_side = nullptr;
    if (c.lhs->op == ExprOp::kVar && var_reg_.count(c.lhs->var) == 0) {
      var_side = c.lhs.get();
      expr_side = c.rhs.get();
    } else {
      var_side = c.rhs.get();
      expr_side = c.lhs.get();
    }
    DCD_CHECK(var_side->op == ExprOp::kVar);
    Step step;
    step.kind = StepKind::kBind;
    DCD_ASSIGN_OR_RETURN(step.lhs, CompileExpr(*expr_side));
    step.bind_reg = AllocReg(step.lhs.type);
    var_reg_[var_side->var] = step.bind_reg;
    out_.steps.push_back(std::move(step));
    return Status::OK();
  }

  Result<CompiledExpr> CompileTerm(const Term& t, ColumnType target) {
    if (t.kind == TermKind::kConstant) {
      CompiledExpr e;
      e.op = ExprOp::kConst;
      e.const_word = t.constant.word;
      e.type = t.constant.type;
      return Coerce(std::move(e), target);
    }
    auto it = var_reg_.find(t.var);
    if (it == var_reg_.end()) {
      return Status::PlanError("head variable '" + t.var + "' unbound");
    }
    CompiledExpr e;
    e.op = ExprOp::kVar;
    e.reg = it->second;
    e.type = reg_types_[e.reg];
    return Coerce(std::move(e), target);
  }

  Status CompileHead(const RuleHead& head) {
    out_.head.predicate = head.predicate;
    out_.head.pred_id = scc_->PredIdOf(head.predicate);
    DCD_CHECK(out_.head.pred_id >= 0);
    out_.head.agg = plan_->agg_specs.at(head.predicate);
    const AggSpec& spec = out_.head.agg;
    const PredicateInfo& info = analysis_.predicate(head.predicate);

    if (spec.wire_arity > kMaxWireArity) {
      return Status::Unsupported(
          "predicate '" + head.predicate + "' needs wire arity " +
          std::to_string(spec.wire_arity) + " > " +
          std::to_string(kMaxWireArity));
    }

    // Group / plain columns first.
    const size_t plain_args =
        spec.func == AggFunc::kNone ? head.args.size() : head.args.size() - 1;
    for (size_t i = 0; i < plain_args; ++i) {
      DCD_ASSIGN_OR_RETURN(
          CompiledExpr e,
          CompileTerm(head.args[i].term(), info.column_types[i]));
      out_.head.wire_exprs.push_back(std::move(e));
    }
    if (spec.func != AggFunc::kNone) {
      const HeadArg& agg_arg = head.args.back();
      switch (spec.func) {
        case AggFunc::kMin:
        case AggFunc::kMax: {
          DCD_ASSIGN_OR_RETURN(
              CompiledExpr e,
              CompileTerm(agg_arg.terms[0], spec.value_type));
          out_.head.wire_exprs.push_back(std::move(e));
          break;
        }
        case AggFunc::kCount: {
          // Contributor key: kept raw (used only for identity).
          DCD_ASSIGN_OR_RETURN(CompiledExpr e,
                               CompileTerm(agg_arg.terms[0], ColumnType::kInt));
          out_.head.wire_exprs.push_back(std::move(e));
          break;
        }
        case AggFunc::kSum: {
          DCD_ASSIGN_OR_RETURN(CompiledExpr c,
                               CompileTerm(agg_arg.terms[0], ColumnType::kInt));
          out_.head.wire_exprs.push_back(std::move(c));
          DCD_ASSIGN_OR_RETURN(
              CompiledExpr v,
              CompileTerm(agg_arg.terms[1], spec.value_type));
          out_.head.wire_exprs.push_back(std::move(v));
          break;
        }
        case AggFunc::kNone:
          break;
      }
    }
    DCD_CHECK(out_.head.wire_exprs.size() == spec.wire_arity);
    return Status::OK();
  }

#undef DCD_RETURN_IF_ERROR_P

  const Program& program_;
  const ProgramAnalysis& analysis_;
  PhysicalPlan* plan_;
  SccPlan* scc_;

  const Rule* rule_ = nullptr;
  PhysicalRule out_;
  std::map<std::string, int> var_reg_;
  std::vector<ColumnType> reg_types_;
  uint32_t driving_partition_col_ = 0;
  bool driving_needs_locality_ = false;
  bool is_update_ = false;
  bool is_check_ = false;
  bool first_scan_ = true;
};

}  // namespace

std::vector<int> SccPlan::ReplicasOf(const std::string& pred) const {
  std::vector<int> out;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i].predicate == pred) out.push_back(static_cast<int>(i));
  }
  return out;
}

int SccPlan::PredIdOf(const std::string& pred) const {
  for (size_t i = 0; i < derived_preds.size(); ++i) {
    if (derived_preds[i] == pred) return static_cast<int>(i);
  }
  return -1;
}

std::string PhysicalRule::ToString() const {
  std::ostringstream os;
  os << "rule#" << rule_index;
  if (delta_atom >= 0) os << " δ@" << delta_atom;
  os << " drive=";
  if (driving_is_unit) {
    os << "<unit>";
  } else {
    os << driving_relation;
    if (driving_replica >= 0) os << " (replica " << driving_replica << ")";
  }
  os << " steps=" << steps.size() << " head=" << head.predicate;
  return os.str();
}

std::string SccPlan::ToString() const {
  std::ostringstream os;
  os << "SCC " << scc_id << (recursive ? " (recursive)" : "") << "\n";
  os << "  replicas:";
  for (size_t i = 0; i < replicas.size(); ++i) {
    os << " [" << i << "]" << replicas[i].predicate << "@"
       << replicas[i].partition_col
       << (replicas[i].needs_join_index ? "+idx" : "");
  }
  os << "\n";
  for (const auto& r : base_rules) os << "  base  " << r.ToString() << "\n";
  for (const auto& r : delta_rules) os << "  delta " << r.ToString() << "\n";
  for (const auto& r : update_rules) os << "  update " << r.ToString() << "\n";
  for (const auto& r : check_rules) os << "  check " << r.ToString() << "\n";
  return os.str();
}

std::string PhysicalPlan::ToString() const {
  std::ostringstream os;
  for (const auto& scc : sccs) os << scc.ToString();
  os << "base indexes:";
  for (size_t i = 0; i < base_indexes.size(); ++i) {
    os << " [" << i << "]" << base_indexes[i].relation << "@"
       << base_indexes[i].col;
  }
  os << "\n";
  return os.str();
}

Result<PhysicalPlan> BuildPhysicalPlan(
    const Program& program, const ProgramAnalysis& analysis,
    const std::vector<LogicalRulePlan>& logical_plans,
    bool build_update_rules) {
  PhysicalPlan plan;

  // Aggregate specs for every derived predicate.
  for (const auto& [name, info] : analysis.predicates()) {
    if (info.is_edb) continue;
    AggSpec spec = MakeAggSpec(program, analysis, name);
    // The composite-key indexes bound group width: two words for min/max
    // (a (group, row) B+-tree key), one word for count/sum (the other key
    // word holds the contributor).
    if ((spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) &&
        spec.group_arity > 2) {
      return Status::Unsupported("predicate '" + name +
                                 "': min/max supports at most 2 group-by "
                                 "columns");
    }
    if ((spec.func == AggFunc::kCount || spec.func == AggFunc::kSum) &&
        spec.group_arity > 1) {
      return Status::Unsupported("predicate '" + name +
                                 "': count/sum supports at most 1 group-by "
                                 "column");
    }
    plan.agg_specs[name] = spec;
    plan.schemas[name] = analysis.SchemaOf(name);
  }
  plan.outputs = program.outputs;

  // One SccPlan per SCC that defines rules, in evaluation order.
  for (size_t s = 0; s < analysis.sccs().size(); ++s) {
    const SccInfo& info = analysis.sccs()[s];
    if (info.rule_indices.empty()) continue;  // Pure-EDB SCC.
    SccPlan scc;
    scc.scc_id = static_cast<int>(s);
    scc.recursive = info.recursive;
    scc.derived_preds = info.predicates;

    RuleCompiler compiler(program, analysis, &plan, &scc);
    for (const LogicalRulePlan& logical : logical_plans) {
      if (analysis.rule_infos()[logical.rule_index].head_scc !=
          static_cast<int>(s)) {
        continue;
      }
      DCD_ASSIGN_OR_RETURN(PhysicalRule rule, compiler.Compile(logical));
      if (rule.delta_atom < 0) {
        scc.base_rules.push_back(std::move(rule));
      } else {
        scc.delta_rules.push_back(std::move(rule));
      }
    }

    // Update versions for incremental maintenance: one per (rule, positive
    // non-recursive body atom). A version that fails to compile (e.g. a
    // recursive probe that cannot stay partition-local when driven from
    // this atom) marks the atom's relation update-ineligible instead of
    // failing the plan — batches touching it fall back to full recompute.
    if (build_update_rules) {
      for (size_t r = 0; r < program.rules.size(); ++r) {
        const RuleInfo& rinfo = analysis.rule_infos()[r];
        if (rinfo.head_scc != static_cast<int>(s)) continue;
        const Rule& rule = program.rules[r];
        for (size_t b = 0; b < rule.body.size(); ++b) {
          const BodyLiteral& lit = rule.body[b];
          if (lit.kind != BodyLiteral::Kind::kAtom || lit.negated) continue;
          if (std::find(rinfo.recursive_atoms.begin(),
                        rinfo.recursive_atoms.end(),
                        static_cast<int>(b)) != rinfo.recursive_atoms.end()) {
            continue;
          }
          const size_t replicas_before = scc.replicas.size();
          auto compile_one = [&]() -> Result<PhysicalRule> {
            DCD_ASSIGN_OR_RETURN(
                LogicalRulePlan logical,
                BuildUpdateVersion(program, analysis, static_cast<int>(r),
                                   static_cast<int>(b)));
            return compiler.Compile(logical);
          };
          Result<PhysicalRule> compiled = compile_one();
          if (!compiled.ok()) {
            scc.replicas.resize(replicas_before);
            const std::string& rel = lit.atom.predicate;
            if (std::find(plan.update_ineligible_rels.begin(),
                          plan.update_ineligible_rels.end(),
                          rel) == plan.update_ineligible_rels.end()) {
              plan.update_ineligible_rels.push_back(rel);
            }
            continue;
          }
          scc.update_rules.push_back(std::move(compiled).value());
        }
      }

      // Check versions for Backward/Forward deletion, one per rule. Check
      // must see every instance deriving a fact, so one rule without a
      // check version makes the whole SCC check-ineligible.
      const size_t indexes_before = plan.base_indexes.size();
      for (int r : info.rule_indices) {
        auto compile_check = [&]() -> Result<PhysicalRule> {
          DCD_ASSIGN_OR_RETURN(LogicalRulePlan logical,
                               BuildCheckVersion(program, analysis, r));
          return compiler.Compile(logical);
        };
        Result<PhysicalRule> compiled = compile_check();
        if (!compiled.ok()) {
          scc.check_rules.clear();
          plan.base_indexes.resize(indexes_before);
          for (const std::string& pred : scc.derived_preds) {
            plan.check_ineligible_preds.push_back(pred);
          }
          break;
        }
        scc.check_rules.push_back(std::move(compiled).value());
      }
    }

    // Every derived predicate needs at least one replica so Gather has a
    // partitioned home for it, even if no rule reads it back.
    for (const std::string& pred : scc.derived_preds) {
      if (scc.ReplicasOf(pred).empty()) {
        scc.replicas.push_back(ReplicaSpec{pred, 0, false, false});
      }
    }

    // Validate partition columns against aggregate group prefixes: routing
    // must key on a group column, or a group's tuples would scatter across
    // workers and per-worker aggregation would be wrong. A global
    // aggregate (no group columns) instead pins its single group to one
    // worker via constant routing.
    for (ReplicaSpec& replica : scc.replicas) {
      const AggSpec& spec = plan.agg_specs.at(replica.predicate);
      const uint32_t limit =
          spec.func == AggFunc::kNone ? spec.stored_arity : spec.group_arity;
      if (replica.partition_col >= limit) {
        if (spec.func != AggFunc::kNone && spec.group_arity == 0 &&
            !replica.needs_join_index) {
          replica.partition_constant = true;
          replica.partition_col = 0;
          continue;
        }
        return Status::Unsupported(
            "predicate '" + replica.predicate +
            "' would be partitioned on its aggregate column");
      }
    }

    // Carry-set index: delta rules grouped by driving replica, for the
    // executor's morsel path. Built last — the replica list is final here.
    scc.delta_rules_by_replica.assign(scc.replicas.size(), {});
    for (size_t dr = 0; dr < scc.delta_rules.size(); ++dr) {
      const int rep = scc.delta_rules[dr].driving_replica;
      if (rep >= 0 && rep < static_cast<int>(scc.replicas.size())) {
        scc.delta_rules_by_replica[rep].push_back(static_cast<int>(dr));
      }
    }

    plan.sccs.push_back(std::move(scc));
  }
  return plan;
}

}  // namespace dcdatalog
