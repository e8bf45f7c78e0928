#include "planner/physical_plan.h"

#include <algorithm>
#include <cstdint>
#include <set>
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

/// Occurrences of variable `v` across the rule body: atom arguments and
/// constraint expressions.
int BodyUses(const Rule& rule, const std::string& v) {
  int uses = 0;
  std::vector<std::string> vars;
  for (const BodyLiteral& lit : rule.body) {
    if (lit.kind == BodyLiteral::Kind::kAtom) {
      for (const Term& t : lit.atom.args) uses += t.IsVariable() && t.var == v;
      continue;
    }
    vars.clear();
    lit.constraint.lhs->CollectVars(&vars);
    lit.constraint.rhs->CollectVars(&vars);
    uses += static_cast<int>(std::count(vars.begin(), vars.end(), v));
  }
  return uses;
}

/// True when the aggregate value of body atom `atom` reaches the rule only
/// as the head aggregate's argument: a variable used nowhere else in the
/// body and in no head group column. Such a reader of a min (max) value
/// with a min (max) head is monotone in it.
bool ValueOnlyFeedsHeadAggregate(const Rule& rule, const Atom& atom) {
  const Term& value = atom.args.back();
  const Term& agg = rule.head.args.back().term();
  if (!value.IsVariable() || !agg.IsVariable() || agg.var != value.var) {
    return false;
  }
  if (BodyUses(rule, value.var) != 1) return false;
  for (size_t i = 0; i + 1 < rule.head.args.size(); ++i) {
    const Term& t = rule.head.args[i].term();
    if (t.IsVariable() && t.var == value.var) return false;
  }
  return true;
}

/// Aggregate predicates an insert cannot maintain incrementally. A lower
/// min (higher max) is one more semi-naive step for a reader in the
/// predicate's own SCC with the same head function (PreM, as in a scratch
/// run), and for a reader in a later SCC with the same head function whose
/// only use of the value is that head aggregate. Any other positive read
/// of a min/max value, any read of a count, and every sum predicate (a
/// merge replaces a contributor's value) keep the recompute.
std::vector<std::string> InsertRecomputePreds(
    const Program& program, const ProgramAnalysis& analysis,
    const std::map<std::string, AggSpec>& specs) {
  std::set<std::string> out;
  for (const auto& [name, spec] : specs) {
    if (spec.func == AggFunc::kSum) out.insert(name);
  }
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    const AggFunc head = specs.at(rule.head.predicate).func;
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kAtom || lit.negated) continue;
      auto it = specs.find(lit.atom.predicate);
      if (it == specs.end() || it->second.func == AggFunc::kNone) continue;
      const AggFunc func = it->second.func;
      bool monotone = false;
      if ((func == AggFunc::kMin || func == AggFunc::kMax) && head == func) {
        monotone = analysis.predicate(lit.atom.predicate).scc_id ==
                       analysis.rule_infos()[r].head_scc ||
                   ValueOnlyFeedsHeadAggregate(rule, lit.atom);
      }
      if (!monotone) out.insert(lit.atom.predicate);
    }
  }
  return {out.begin(), out.end()};
}

/// OK when rule `r` of a min/max SCC has a check version the aggregate
/// delete can use: a min/max head, and at most one same-SCC goal, of the
/// head's function and value type, whose value only feeds the head
/// aggregate (copy form). Each instance then yields its same-SCC goal's
/// value, or with no such goal the head value it computes.
Status AggregateCheckForm(const Program& program,
                          const ProgramAnalysis& analysis,
                          const std::map<std::string, AggSpec>& specs,
                          int r) {
  const Rule& rule = program.rules[r];
  const AggSpec& head = specs.at(rule.head.predicate);
  const std::vector<int>& same_scc = analysis.rule_infos()[r].recursive_atoms;
  const std::string where = "rule at line " + std::to_string(rule.line);
  if (head.func != AggFunc::kMin && head.func != AggFunc::kMax) {
    return Status::Unsupported(where + ": an aggregate SCC has check "
                               "versions only for min/max heads");
  }
  if (same_scc.size() > 1) {
    return Status::Unsupported(where + ": a min/max head with more than "
                               "one same-SCC goal has no check version");
  }
  for (int b : same_scc) {
    const Atom& atom = rule.body[b].atom;
    const AggSpec& body = specs.at(atom.predicate);
    if (body.func != head.func || body.value_type != head.value_type ||
        !ValueOnlyFeedsHeadAggregate(rule, atom)) {
      return Status::Unsupported(where + ": goal '" + atom.ToString() +
                                 "' does not copy its value into the head "
                                 "aggregate, so the rule has no check "
                                 "version");
    }
  }
  return Status::OK();
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
    if (is_check_) {
      // A check version emits its instance's same-SCC body facts, back to
      // back, in place of the head fact that drove it. A min/max instance
      // with none emits the value it yields instead.
      for (const Atom& atom : logical.check_atoms) {
        DCD_RETURN_IF_ERROR_P(CompileCheckAtom(atom));
      }
      const AggSpec& spec = out_.head.agg;
      if (logical.check_atoms.empty() && spec.func != AggFunc::kNone) {
        DCD_ASSIGN_OR_RETURN(
            CompiledExpr value,
            CompileTerm(rule_->head.args.back().terms[0], spec.value_type));
        out_.head.wire_exprs.push_back(std::move(value));
      }
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

  /// Compiles a same-SCC body atom of a check version into one head wire
  /// expression per column, rebuilding the body fact from the registers,
  /// and records its CheckAtom. Columns are raw words, exactly as a join's
  /// checks compare them (no coercion). A min/max atom names its group:
  /// its group columns only.
  Status CompileCheckAtom(const Atom& atom) {
    const AggSpec& spec = plan_->agg_specs.at(atom.predicate);
    const size_t width =
        spec.func == AggFunc::kNone ? atom.args.size() : spec.group_arity;
    out_.check_atoms.push_back(CheckAtom{scc_->PredIdOf(atom.predicate),
                                         static_cast<uint32_t>(width)});
    for (size_t c = 0; c < width; ++c) {
      const Term& t = atom.args[c];
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
      out_.head.wire_exprs.push_back(std::move(e));
    }
    return Status::OK();
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
    // A check version's wire is built once the body is compiled.
    if (is_check_) return Status::OK();

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

/// SccPlan::shard_col of the SCC `info`: its lowest proof-invariant
/// column, or -1 when some predicate aggregates or no column qualifies.
int ShardColumn(const Program& program, const ProgramAnalysis& analysis,
                const PhysicalPlan& plan, const SccInfo& info) {
  for (const std::string& pred : info.predicates) {
    if (plan.agg_specs.at(pred).func != AggFunc::kNone) return -1;
  }
  size_t width = SIZE_MAX;
  for (int r : info.rule_indices) {
    width = std::min(width, program.rules[r].head.args.size());
  }
  for (size_t c = 0; c < width; ++c) {
    bool invariant = true;
    for (int r : info.rule_indices) {
      const Rule& rule = program.rules[r];
      const Term& head = rule.head.args[c].term();
      for (int b : analysis.rule_infos()[r].recursive_atoms) {
        const Term& body = rule.body[b].atom.args[c];
        if (!head.IsVariable() || !body.IsVariable() || body.var != head.var) {
          invariant = false;
        }
      }
    }
    if (invariant) return static_cast<int>(c);
  }
  return -1;
}

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
  os << "SCC " << scc_id << (recursive ? " (recursive)" : "");
  if (shard_col >= 0) os << " shard col " << shard_col;
  os << "\n";
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
    // The 128-bit merge keys bound group width: two words for min/max
    // (the group key), one word for count/sum (the other key word holds
    // the contributor).
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
  if (build_update_rules) {
    plan.insert_recompute_preds =
        InsertRecomputePreds(program, analysis, plan.agg_specs);
  }

  // One SccPlan per SCC that defines rules, in evaluation order.
  for (size_t s = 0; s < analysis.sccs().size(); ++s) {
    const SccInfo& info = analysis.sccs()[s];
    if (info.rule_indices.empty()) continue;  // Pure-EDB SCC.
    SccPlan scc;
    scc.scc_id = static_cast<int>(s);
    scc.recursive = info.recursive;
    scc.derived_preds = info.predicates;
    scc.shard_col = ShardColumn(program, analysis, plan, info);

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

      // Check versions for the delete paths, one per rule. Check must see
      // every instance deriving a fact, so one rule without a check
      // version makes the whole SCC check-ineligible. An aggregate SCC
      // also needs one replica per predicate: a group's stamp is its
      // canonical row's.
      const bool aggregate = std::any_of(
          info.predicates.begin(), info.predicates.end(),
          [&plan](const std::string& pred) {
            return plan.agg_specs.at(pred).func != AggFunc::kNone;
          });
      const size_t indexes_before = plan.base_indexes.size();
      const auto ineligible = [&] {
        scc.check_rules.clear();
        plan.base_indexes.resize(indexes_before);
        for (const std::string& pred : scc.derived_preds) {
          plan.check_ineligible_preds.push_back(pred);
        }
      };
      for (int r : info.rule_indices) {
        auto compile_check = [&]() -> Result<PhysicalRule> {
          if (aggregate) {
            DCD_RETURN_IF_ERROR(
                AggregateCheckForm(program, analysis, plan.agg_specs, r));
          }
          DCD_ASSIGN_OR_RETURN(LogicalRulePlan logical,
                               BuildCheckVersion(program, analysis, r));
          return compiler.Compile(logical);
        };
        Result<PhysicalRule> compiled = compile_check();
        if (!compiled.ok()) {
          ineligible();
          break;
        }
        scc.check_rules.push_back(std::move(compiled).value());
      }
      if (aggregate && !scc.check_rules.empty() &&
          std::any_of(scc.derived_preds.begin(), scc.derived_preds.end(),
                      [&scc](const std::string& pred) {
                        return scc.ReplicasOf(pred).size() > 1;
                      })) {
        ineligible();
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

    plan.sccs.push_back(std::move(scc));
  }
  return plan;
}

}  // namespace dcdatalog
