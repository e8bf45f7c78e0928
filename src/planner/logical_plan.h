#ifndef DCDATALOG_PLANNER_LOGICAL_PLAN_H_
#define DCDATALOG_PLANNER_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/analysis.h"
#include "datalog/ast.h"

namespace dcdatalog {

/// Logical relational operators (paper §5.1). A rule compiles to a DAG —
/// here a left-deep tree — of these; recursive predicates carry delta tags.
enum class LogicalOpKind : uint8_t {
  kScan,        // A body atom: base relation or recursive table.
  kJoin,        // Natural join of the two children on shared variables.
  kAntiJoin,    // Stratified negation: drop rows matching `atom`.
  kSelect,      // A constraint filter.
  kBind,        // An assignment `Var = expr` introducing a new column.
  kProjectHead, // Final projection to the head, including aggregate spec.
};

struct LogicalOp {
  LogicalOpKind kind;

  // kScan / kAntiJoin
  Atom atom;
  bool is_delta = false;      // Scan of δP rather than P.
  bool is_recursive = false;  // P is in the rule's own SCC.

  // kJoin
  std::vector<std::string> join_vars;  // Shared variables (documentation).

  // kSelect / kBind
  Constraint constraint;

  // kProjectHead
  RuleHead head;

  std::vector<std::unique_ptr<LogicalOp>> children;

  std::string ToString(int indent = 0) const;
};

/// The logical plan of one rule: a single delta version. A rule with k
/// recursive body atoms yields k delta versions (semi-naive rewriting);
/// a base rule yields exactly one with delta_atom = -1.
struct LogicalRulePlan {
  int rule_index = -1;
  int delta_atom = -1;  // Body index of the δ-scanned atom; -1 = base rule.
  /// Incremental-maintenance update version: delta_atom names a positive
  /// *non-recursive* body atom, and the driving scan ranges over that
  /// relation's newly-arrived rows instead of a recursive table's δ.
  bool is_update = false;
  /// Backward/Forward check version: the driving scan is the rule's head
  /// atom (bound from one fact), the body keeps every literal over another
  /// SCC, and the same-SCC atoms move to `check_atoms`, to be built from
  /// the registers once the body has bound them (see BuildCheckVersion).
  bool is_check = false;
  std::vector<Atom> check_atoms;
  std::unique_ptr<LogicalOp> root;

  std::string ToString() const;
};

/// Builds the logical plans for every rule of `program`:
///  1. expands each recursive rule into its delta versions,
///  2. reorders body atoms recursive-table-first (paper §5.1),
///  3. orders remaining atoms greedily by join connectivity,
///  4. pushes selections/bindings down to the lowest join level where
///     their variables are bound.
Result<std::vector<LogicalRulePlan>> BuildLogicalPlans(
    const Program& program, const ProgramAnalysis& analysis);

/// Builds the incremental-maintenance "update version" of one rule: the
/// positive non-recursive body atom `update_atom` becomes the driving scan
/// (tagged is_delta, so downstream planning treats it exactly like a δ
/// scan), and every other literal is probed at its full current value.
/// Driving such a version over a relation's newly-arrived rows re-derives
/// precisely the derivations that consume at least one new tuple — the
/// monotone half of delta maintenance. One version exists per
/// (rule, positive non-recursive atom).
Result<LogicalRulePlan> BuildUpdateVersion(const Program& program,
                                           const ProgramAnalysis& analysis,
                                           int rule_index, int update_atom);

/// Builds the head-bound "check version" of one rule for Backward/Forward
/// deletion: driven by a candidate fact F of the head predicate, it
/// enumerates the rule instances deriving F. Literals over other SCCs stay
/// in the body and are joined as usual; the positive same-SCC atoms are
/// not joined but returned in check_atoms, since each instance's
/// same-SCC facts are looked up (and recursively checked) one by one by
/// the caller. Planning fails when a same-SCC atom holds a wildcard, or a
/// variable or constraint that neither the head nor the other-SCC body
/// binds — such a rule has no check version.
Result<LogicalRulePlan> BuildCheckVersion(const Program& program,
                                          const ProgramAnalysis& analysis,
                                          int rule_index);

}  // namespace dcdatalog

#endif  // DCDATALOG_PLANNER_LOGICAL_PLAN_H_
