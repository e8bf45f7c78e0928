#include "planner/logical_plan.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace dcdatalog {
namespace {

/// Collects the variables of an atom.
std::set<std::string> AtomVars(const Atom& atom) {
  std::set<std::string> vars;
  for (const Term& t : atom.args) {
    if (t.IsVariable()) vars.insert(t.var);
  }
  return vars;
}

bool SharesVar(const std::set<std::string>& bound, const Atom& atom) {
  for (const Term& t : atom.args) {
    if (t.IsVariable() && bound.count(t.var) > 0) return true;
  }
  return false;
}

/// Orders the body atoms of one delta version: δ atom first (the paper's
/// recursive-leftmost rule), then greedily by connectivity to the already
/// bound variables so every later join has a bound key when possible.
std::vector<int> OrderAtoms(const Rule& rule, int delta_atom) {
  // Positive atoms only; negated atoms are placed later, like constraints.
  std::vector<int> atom_indices;
  for (size_t b = 0; b < rule.body.size(); ++b) {
    if (rule.body[b].kind == BodyLiteral::Kind::kAtom &&
        !rule.body[b].negated) {
      atom_indices.push_back(static_cast<int>(b));
    }
  }
  std::vector<int> order;
  std::set<std::string> bound;
  std::vector<bool> used(rule.body.size(), false);

  auto take = [&](int body_idx) {
    order.push_back(body_idx);
    used[body_idx] = true;
    for (const std::string& v : AtomVars(rule.body[body_idx].atom)) {
      bound.insert(v);
    }
  };

  if (delta_atom >= 0) take(delta_atom);

  while (order.size() < atom_indices.size()) {
    int pick = -1;
    // Prefer a connected non-recursive atom, then any connected atom, then
    // any atom at all (cartesian fallback).
    for (int b : atom_indices) {
      if (used[b]) continue;
      if (!bound.empty() && !SharesVar(bound, rule.body[b].atom)) continue;
      pick = b;
      break;
    }
    if (pick == -1) {
      for (int b : atom_indices) {
        if (!used[b]) {
          pick = b;
          break;
        }
      }
    }
    take(pick);
  }
  return order;
}

/// Tracks which constraints have been placed and which variables are bound,
/// and emits Bind/Select wrappers as soon as their inputs are available —
/// this is the selection-pushdown of §5.1.
class ConstraintPlacer {
 public:
  explicit ConstraintPlacer(const Rule& rule) : rule_(rule) {
    for (size_t b = 0; b < rule.body.size(); ++b) {
      if (rule.body[b].kind == BodyLiteral::Kind::kConstraint ||
          rule.body[b].negated) {
        pending_.push_back(static_cast<int>(b));
      }
    }
  }

  void BindAtomVars(const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.IsVariable()) bound_.insert(t.var);
    }
  }

  /// Wraps `node` with every constraint that can run now. Binding
  /// assignments may unlock further constraints, so loop to fixpoint.
  std::unique_ptr<LogicalOp> Apply(std::unique_ptr<LogicalOp> node) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = pending_.begin(); it != pending_.end();) {
        const BodyLiteral& lit = rule_.body[*it];
        if (lit.kind == BodyLiteral::Kind::kAtom) {
          // A negated atom: place once every variable is bound.
          if (AtomVarsBound(lit.atom)) {
            auto op = std::make_unique<LogicalOp>();
            op->kind = LogicalOpKind::kAntiJoin;
            op->atom = lit.atom;
            if (node != nullptr) op->children.push_back(std::move(node));
            node = std::move(op);
            it = pending_.erase(it);
            progressed = true;
          } else {
            ++it;
          }
          continue;
        }
        const Constraint& c = lit.constraint;
        if (CanBind(c)) {
          node = Wrap(LogicalOpKind::kBind, c, std::move(node));
          BindTarget(c);
          it = pending_.erase(it);
          progressed = true;
        } else if (AllVarsBound(c)) {
          node = Wrap(LogicalOpKind::kSelect, c, std::move(node));
          it = pending_.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
    }
    return node;
  }

  bool AllPlaced() const { return pending_.empty(); }

 private:
  bool VarBound(const std::string& v) const { return bound_.count(v) > 0; }

  bool AtomVarsBound(const Atom& atom) const {
    for (const Term& t : atom.args) {
      if (t.IsVariable() && !VarBound(t.var)) return false;
    }
    return true;
  }

  bool ExprBound(const Expr& e) const {
    std::vector<std::string> vars;
    e.CollectVars(&vars);
    return std::all_of(vars.begin(), vars.end(),
                       [this](const std::string& v) { return VarBound(v); });
  }

  bool AllVarsBound(const Constraint& c) const {
    return ExprBound(*c.lhs) && ExprBound(*c.rhs);
  }

  /// True when the constraint is `V = expr` with V unbound and expr bound
  /// (either orientation) — it should become a Bind, not a Select.
  bool CanBind(const Constraint& c) const {
    if (c.op != CmpOp::kEq) return false;
    if (c.lhs->op == ExprOp::kVar && !VarBound(c.lhs->var) &&
        ExprBound(*c.rhs)) {
      return true;
    }
    if (c.rhs->op == ExprOp::kVar && !VarBound(c.rhs->var) &&
        ExprBound(*c.lhs)) {
      return true;
    }
    return false;
  }

  void BindTarget(const Constraint& c) {
    if (c.lhs->op == ExprOp::kVar && !VarBound(c.lhs->var)) {
      bound_.insert(c.lhs->var);
    } else if (c.rhs->op == ExprOp::kVar) {
      bound_.insert(c.rhs->var);
    }
  }

  std::unique_ptr<LogicalOp> Wrap(LogicalOpKind kind, const Constraint& c,
                                  std::unique_ptr<LogicalOp> child) {
    auto op = std::make_unique<LogicalOp>();
    op->kind = kind;
    op->constraint = c.Clone();
    if (child != nullptr) op->children.push_back(std::move(child));
    return op;
  }

  const Rule& rule_;
  std::set<std::string> bound_;
  std::vector<int> pending_;
};

/// Plans one version of `rule` driven by body atom `delta_atom` (-1: a
/// base rule). `recursive_atoms` are the body indices over the head's SCC.
Result<LogicalRulePlan> BuildVersionOf(const Rule& rule,
                                       const std::vector<int>& recursive_atoms,
                                       int rule_index, int delta_atom) {
  LogicalRulePlan plan;
  plan.rule_index = rule_index;
  plan.delta_atom = delta_atom;

  ConstraintPlacer placer(rule);
  std::unique_ptr<LogicalOp> node;

  const std::vector<int> order = OrderAtoms(rule, delta_atom);
  for (size_t k = 0; k < order.size(); ++k) {
    const int body_idx = order[k];
    const Atom& atom = rule.body[body_idx].atom;

    auto scan = std::make_unique<LogicalOp>();
    scan->kind = LogicalOpKind::kScan;
    scan->atom = atom;
    scan->is_delta = body_idx == delta_atom;
    scan->is_recursive =
        std::find(recursive_atoms.begin(), recursive_atoms.end(),
                  body_idx) != recursive_atoms.end();

    if (node == nullptr) {
      node = std::move(scan);
      placer.BindAtomVars(atom);
    } else {
      auto join = std::make_unique<LogicalOp>();
      join->kind = LogicalOpKind::kJoin;
      // Record shared variables for diagnostics.
      std::set<std::string> prev_bound;
      for (size_t j = 0; j < k; ++j) {
        for (const std::string& v :
             AtomVars(rule.body[order[j]].atom)) {
          prev_bound.insert(v);
        }
      }
      for (const std::string& v : AtomVars(atom)) {
        if (prev_bound.count(v) > 0) join->join_vars.push_back(v);
      }
      join->children.push_back(std::move(node));
      join->children.push_back(std::move(scan));
      node = std::move(join);
      placer.BindAtomVars(atom);
    }
    node = placer.Apply(std::move(node));
  }

  // Rules with no atoms (e.g. SSSP's seed rule) start from constraints on
  // an implicit unit row.
  if (node == nullptr) {
    node = placer.Apply(nullptr);
  } else {
    node = placer.Apply(std::move(node));
  }

  if (!placer.AllPlaced()) {
    return Status::PlanError("rule at line " + std::to_string(rule.line) +
                             ": some constraints reference unbound variables");
  }

  auto project = std::make_unique<LogicalOp>();
  project->kind = LogicalOpKind::kProjectHead;
  project->head.predicate = rule.head.predicate;
  for (const HeadArg& arg : rule.head.args) {
    HeadArg copy;
    copy.agg = arg.agg;
    copy.terms = arg.terms;
    project->head.args.push_back(std::move(copy));
  }
  if (node != nullptr) project->children.push_back(std::move(node));
  plan.root = std::move(project);
  return plan;
}

Result<LogicalRulePlan> BuildOneVersion(const Program& program,
                                        const ProgramAnalysis& analysis,
                                        int rule_index, int delta_atom) {
  return BuildVersionOf(program.rules[rule_index],
                        analysis.rule_infos()[rule_index].recursive_atoms,
                        rule_index, delta_atom);
}

}  // namespace

std::string LogicalOp::ToString(int indent) const {
  std::ostringstream os;
  std::string pad(indent * 2, ' ');
  os << pad;
  switch (kind) {
    case LogicalOpKind::kScan:
      os << "Scan(" << (is_delta ? "δ" : "") << atom.ToString()
         << (is_recursive && !is_delta ? " [recursive]" : "") << ")";
      break;
    case LogicalOpKind::kAntiJoin:
      os << "AntiJoin(!" << atom.ToString() << ")";
      break;
    case LogicalOpKind::kJoin: {
      os << "Join[";
      for (size_t i = 0; i < join_vars.size(); ++i) {
        if (i > 0) os << ",";
        os << join_vars[i];
      }
      os << "]";
      break;
    }
    case LogicalOpKind::kSelect:
      os << "Select(" << constraint.ToString() << ")";
      break;
    case LogicalOpKind::kBind:
      os << "Bind(" << constraint.ToString() << ")";
      break;
    case LogicalOpKind::kProjectHead:
      os << "ProjectHead(" << head.ToString() << ")";
      break;
  }
  for (const auto& child : children) {
    os << "\n" << child->ToString(indent + 1);
  }
  return os.str();
}

std::string LogicalRulePlan::ToString() const {
  std::ostringstream os;
  os << "rule#" << rule_index;
  if (delta_atom >= 0) os << " δ@" << delta_atom;
  os << ":\n" << root->ToString(1);
  return os.str();
}

Result<LogicalRulePlan> BuildUpdateVersion(const Program& program,
                                           const ProgramAnalysis& analysis,
                                           int rule_index, int update_atom) {
  DCD_ASSIGN_OR_RETURN(
      LogicalRulePlan plan,
      BuildOneVersion(program, analysis, rule_index, update_atom));
  plan.is_update = true;
  return plan;
}

Result<LogicalRulePlan> BuildCheckVersion(const Program& program,
                                          const ProgramAnalysis& analysis,
                                          int rule_index) {
  const Rule& rule = program.rules[rule_index];
  const std::vector<int>& recursive =
      analysis.rule_infos()[rule_index].recursive_atoms;
  // The head becomes the driving atom; same-SCC atoms leave the body. A
  // min/max head binds its group columns only: its instances may yield
  // other values than the fact's.
  Rule check;
  check.line = rule.line;
  check.head.predicate = rule.head.predicate;
  BodyLiteral driving;
  driving.atom.predicate = rule.head.predicate;
  for (const HeadArg& arg : rule.head.args) {
    if (arg.agg == AggFunc::kCount || arg.agg == AggFunc::kSum) {
      return Status::Unsupported("rule at line " + std::to_string(rule.line) +
                                 ": count and sum heads have no check version");
    }
    driving.atom.args.push_back(arg.agg == AggFunc::kNone ? arg.term()
                                                          : Term::Wildcard());
    check.head.args.push_back(HeadArg{arg.agg, arg.terms});
  }
  check.body.push_back(std::move(driving));
  std::vector<Atom> same_scc;
  for (size_t b = 0; b < rule.body.size(); ++b) {
    if (std::find(recursive.begin(), recursive.end(), static_cast<int>(b)) !=
        recursive.end()) {
      same_scc.push_back(rule.body[b].atom);
      continue;
    }
    check.body.push_back(rule.body[b].Clone());
  }
  DCD_ASSIGN_OR_RETURN(LogicalRulePlan plan,
                       BuildVersionOf(check, {}, rule_index, 0));
  plan.delta_atom = -1;  // Driven by a candidate fact, not by a δ.
  plan.is_check = true;
  plan.check_atoms = std::move(same_scc);
  return plan;
}

Result<std::vector<LogicalRulePlan>> BuildLogicalPlans(
    const Program& program, const ProgramAnalysis& analysis) {
  std::vector<LogicalRulePlan> plans;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const RuleInfo& rinfo = analysis.rule_infos()[r];
    if (rinfo.recursive_atoms.empty()) {
      DCD_ASSIGN_OR_RETURN(
          LogicalRulePlan plan,
          BuildOneVersion(program, analysis, static_cast<int>(r), -1));
      plans.push_back(std::move(plan));
    } else {
      if (rinfo.recursive_atoms.size() > 2) {
        return Status::Unsupported(
            "rule at line " + std::to_string(program.rules[r].line) +
            " has more than two recursive goals; DCDatalog routes new "
            "tuples to at most two partitions (paper §4.3)");
      }
      for (int delta_atom : rinfo.recursive_atoms) {
        DCD_ASSIGN_OR_RETURN(
            LogicalRulePlan plan,
            BuildOneVersion(program, analysis, static_cast<int>(r),
                            delta_atom));
        plans.push_back(std::move(plan));
      }
    }
  }
  return plans;
}

}  // namespace dcdatalog
