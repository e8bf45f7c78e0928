#ifndef DCDATALOG_PLANNER_PHYSICAL_PLAN_H_
#define DCDATALOG_PLANNER_PHYSICAL_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "datalog/analysis.h"
#include "planner/logical_plan.h"

namespace dcdatalog {

/// A scalar expression compiled against a rule's register file: variables
/// are resolved to register indices and every node knows its result type,
/// so evaluation needs no name lookups or type dispatch beyond one branch.
struct CompiledExpr {
  ExprOp op = ExprOp::kConst;
  int reg = -1;             // kVar
  uint64_t const_word = 0;  // kConst
  ColumnType type = ColumnType::kInt;
  std::unique_ptr<CompiledExpr> lhs;
  std::unique_ptr<CompiledExpr> rhs;
};

/// How one column of a scanned/probed tuple interacts with registers.
struct OutputBinding {
  uint32_t col;  // Column in the scanned tuple.
  int reg;       // Register to write.
};
struct EqCheck {
  uint32_t col;
  int reg;  // Tuple column must equal this register's value.
};
struct ConstCheck {
  uint32_t col;
  uint64_t word;
};

/// Kinds of pipeline steps executed per driving tuple (paper §5.2).
enum class StepKind : uint8_t {
  kProbeBaseHash,   // Hash-join probe of a base-relation index.
  kScanBase,        // Nested-loop fallback: full scan of a base relation.
  kProbeRecursive,  // Probe a recursive-table replica's join index.
  kAntiJoinIndex,   // Stratified negation via index: reject on any match.
  kAntiJoinScan,    // Stratified negation via full scan.
  kFilter,          // Constraint evaluation.
  kBind,            // Assignment: evaluate expr into a fresh register.
};

struct Step {
  StepKind kind = StepKind::kFilter;

  // Probes and scans.
  std::string relation;    // Base relation name (kProbe*/kScanBase).
  int base_index_id = -1;  // Into PhysicalPlan::base_indexes.
  int replica_id = -1;     // Into SccPlan::replicas (kProbeRecursive).
  uint32_t probe_col = 0;
  int probe_reg = -1;           // Register holding the probe key, or -1 ...
  bool probe_is_const = false;  // ... when the key is this constant:
  uint64_t probe_const = 0;
  std::vector<OutputBinding> outputs;
  std::vector<EqCheck> eq_checks;
  std::vector<ConstCheck> const_checks;

  // kFilter / kBind.
  CmpOp cmp = CmpOp::kEq;
  CompiledExpr lhs;  // kBind: the value expression.
  CompiledExpr rhs;  // kFilter only.
  int bind_reg = -1;

  /// Planner-computed batch-executor metadata: true when the step can fan
  /// out — emit more than one output row per input lane (probes and scans).
  /// Non-expanding steps (filter/bind/anti-join) are at most 1:1, so the
  /// batch executor runs them in place over the selection vector instead of
  /// scattering into a fresh register bank.
  bool expanding = false;

  /// Planner-computed liveness (expanding steps only): the registers an
  /// output lane must inherit from its input lane when this step scatters a
  /// match into the next level — registers read by later steps or the head,
  /// plus this step's own eq-checks, minus the ones its outputs (re)write.
  /// The batch executor copies exactly these words per match instead of the
  /// whole register file.
  std::vector<int> carry_regs;
};

/// Aggregate behaviour of one derived predicate (paper §6.2.1).
///
/// Stored rows always have the head's arity. The wire format — what
/// Distribute sends and Gather merges — differs for sum, which carries a
/// per-contributor value so a contributor can replace its own previous
/// contribution (the PageRank pattern):
///   none:   wire = stored = full row
///   min/max wire = stored = group cols + value
///   count:  wire = group cols + contributor; stored = group cols + count
///   sum:    wire = group cols + contributor + value; stored = group + sum
struct AggSpec {
  AggFunc func = AggFunc::kNone;
  uint32_t group_arity = 0;
  uint32_t stored_arity = 0;
  uint32_t wire_arity = 0;
  ColumnType value_type = ColumnType::kInt;  // Type of the aggregate column.
};

/// One partitioned replica of a recursive predicate: all its tuples, hash-
/// partitioned across workers on `partition_col` of the stored row. Linear
/// recursion needs one replica; non-linear rules route every tuple to two
/// (paper §4.3).
struct ReplicaSpec {
  std::string predicate;
  uint32_t partition_col = 0;
  bool needs_join_index = false;  // Some rule probes this replica.
  /// Global aggregates (no group-by columns) have a single logical group;
  /// all their tuples route to one fixed worker instead of by column.
  bool partition_constant = false;
};

/// The head side of a physical rule: wire-tuple construction and routing.
struct HeadSpec {
  std::string predicate;
  /// Dense plan-time id: index of `predicate` in the owning SCC's
  /// derived_preds. Lets the Distributor keep per-predicate state in a flat
  /// vector instead of a string map on the per-emit hot path.
  int pred_id = -1;
  std::vector<CompiledExpr> wire_exprs;  // One per wire column.
  AggSpec agg;
};

/// One executable rule version: the driving scan, the step pipeline, and
/// the head emission.
struct PhysicalRule {
  int rule_index = -1;
  int delta_atom = -1;  // -1: base rule (driving scan over a relation).

  /// Incremental-maintenance update version: the driving scan ranges over
  /// the newly-arrived rows of a base (or upstream IDB) relation instead of
  /// a replica's δ. delta_atom then names the driven body atom.
  bool is_update = false;

  /// Update versions only: the driving-row column whose hash names the one
  /// worker allowed to process the row (it probes recursive replicas, so
  /// the probe must stay partition-local — same invariant as δ routing), or
  /// -1 when no recursive probe constrains locality and workers may split
  /// the new rows by range.
  int update_partition_col = -1;

  /// Backward/Forward check version (SccPlan::check_rules): the driving
  /// tuple is a fact of the head predicate, the steps join the body's
  /// literals over other SCCs, and each emission is one rule instance
  /// deriving that fact. Its same-SCC body facts are not joined; each
  /// check_atoms entry builds one of them from the registers (predicate,
  /// pred_id and one wire expression per column, like a head).
  bool is_check = false;
  std::vector<HeadSpec> check_atoms;

  /// Driving source: a recursive replica's delta (delta versions), a base
  /// relation scanned in chunks (base rules), or the implicit unit row.
  std::string driving_relation;
  int driving_replica = -1;
  bool driving_is_unit = false;
  std::vector<OutputBinding> scan_outputs;
  std::vector<EqCheck> scan_eq_checks;
  std::vector<ConstCheck> scan_const_checks;

  std::vector<Step> steps;
  HeadSpec head;

  uint32_t num_regs = 0;
  std::vector<ColumnType> reg_types;

  /// Planner-computed: any step has expanding == true. A rule without
  /// expanding steps keeps one batch's lanes 1:1 with its driving tuples,
  /// which lets the batch executor skip bank-to-bank scatters entirely.
  bool has_expanding_steps = false;

  std::string ToString() const;
};

/// Request for a global read-only hash index over a base relation. The
/// engine builds these before the owning SCC starts evaluating.
struct BaseIndexReq {
  std::string relation;
  uint32_t col = 0;
};

/// Everything the engine needs to evaluate one SCC.
struct SccPlan {
  int scc_id = -1;
  bool recursive = false;
  std::vector<std::string> derived_preds;  // Heads defined in this SCC.
  std::vector<ReplicaSpec> replicas;       // Replica id = index here.
  std::vector<PhysicalRule> base_rules;
  std::vector<PhysicalRule> delta_rules;

  /// Update versions (augmented plans only — see BuildPhysicalPlan's
  /// build_update_rules): one per (rule, positive non-recursive body atom),
  /// driven over that relation's newly-arrived rows by ApplyUpdates.
  std::vector<PhysicalRule> update_rules;

  /// Check versions (augmented plans only): one per rule of the SCC, read
  /// by the Backward/Forward delete path. Their base indexes are built on
  /// the first delete, never by a plain evaluation.
  std::vector<PhysicalRule> check_rules;

  /// Carry-set metadata, indexed by replica id: the delta_rules indices
  /// driven by that replica's δ. The executor's morsel path uses it to run
  /// exactly one replica's rules over a stolen driving slice without
  /// scanning the whole delta-rule list per morsel.
  std::vector<std::vector<int>> delta_rules_by_replica;

  /// Replica ids for a predicate, in registration order (the first one is
  /// the canonical replica whose union forms the final relation).
  std::vector<int> ReplicasOf(const std::string& pred) const;

  /// Dense id of a derived predicate (its index in derived_preds), or -1.
  int PredIdOf(const std::string& pred) const;

  std::string ToString() const;
};

struct PhysicalPlan {
  std::vector<SccPlan> sccs;  // In evaluation order.
  std::map<std::string, AggSpec> agg_specs;  // Every derived predicate.
  std::map<std::string, Schema> schemas;     // Stored schemas, derived preds.
  std::vector<BaseIndexReq> base_indexes;
  std::vector<std::string> outputs;  // Program's .output list (may be empty).

  /// Relations for which some rule has no valid update version (e.g. a
  /// recursive probe would leave its partition). An update batch touching
  /// any of these — directly or through the affected-predicate closure —
  /// falls back to full recomputation.
  std::vector<std::string> update_ineligible_rels;

  /// Predicates of the SCCs where some rule has no check version (an
  /// aggregate head, or a same-SCC atom the rest of the rule cannot bind).
  /// A batch with deletions that affects any of these falls back to full
  /// recomputation.
  std::vector<std::string> check_ineligible_preds;

  std::string ToString() const;
};

/// Compiles the logical plans into a physical plan (paper §5.2): assigns
/// partition columns and replicas, selects join methods (a hash-index probe
/// whenever a base atom has a bound column, nested loop otherwise — unlike
/// the paper's §5.2.1 heuristic, which keeps a B+-tree index join for
/// unshared keys; see DESIGN.md), performs register allocation, and
/// validates that recursive probes stay partition-local.
/// With build_update_rules, each SCC additionally carries the compiled
/// update versions of its rules (incremental-maintenance driving) and
/// their check versions (Backward/Forward deletion); rules whose update or
/// check version cannot be compiled are recorded in
/// PhysicalPlan::update_ineligible_rels / check_ineligible_preds rather
/// than failing the plan.
Result<PhysicalPlan> BuildPhysicalPlan(
    const Program& program, const ProgramAnalysis& analysis,
    const std::vector<LogicalRulePlan>& logical_plans,
    bool build_update_rules = false);

}  // namespace dcdatalog

#endif  // DCDATALOG_PLANNER_PHYSICAL_PLAN_H_
