// Unit tests for src/planner: logical plan construction + optimizer
// passes (§5.1) and physical plan compilation (§5.2) — replica/partition
// assignment, join-method heuristic, register allocation.

#include <gtest/gtest.h>

#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "planner/logical_plan.h"
#include "planner/physical_plan.h"
#include "storage/catalog.h"

namespace dcdatalog {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    catalog_.Put(Relation("arc", Schema::Ints(2)));
    catalog_.Put(Relation("warc", Schema::Ints(3)));
    catalog_.Put(Relation("basic", Schema::Ints(2)));
    catalog_.Put(Relation("assbl", Schema::Ints(2)));
    catalog_.Put(Relation("organizer", Schema::Ints(1)));
    catalog_.Put(Relation("friend", Schema::Ints(2)));
  }

  void Load(const std::string& src) {
    auto p = ParseProgram(src, &dict_);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto a = ProgramAnalysis::Analyze(program_, catalog_);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    analysis_ = std::make_unique<ProgramAnalysis>(std::move(a).value());
  }

  Result<std::vector<LogicalRulePlan>> Logical() {
    return BuildLogicalPlans(program_, *analysis_);
  }

  Result<PhysicalPlan> Physical() {
    auto logical = Logical();
    if (!logical.ok()) return logical.status();
    return BuildPhysicalPlan(program_, *analysis_, logical.value());
  }

  Catalog catalog_;
  StringDict dict_;
  Program program_;
  std::unique_ptr<ProgramAnalysis> analysis_;
};

TEST_F(PlannerTest, DeltaVersionsPerRecursiveGoal) {
  Load(
      "path(A, B, min<D>) :- warc(A, B, D).\n"
      "path(A, B, min<D>) :- path(A, C, D1), path(C, B, D2), D = D1 + D2.");
  auto plans = Logical();
  ASSERT_TRUE(plans.ok());
  // 1 base version + 2 delta versions for the non-linear rule.
  EXPECT_EQ(plans.value().size(), 3u);
  int delta_versions = 0;
  for (const auto& p : plans.value()) {
    if (p.delta_atom >= 0) ++delta_versions;
  }
  EXPECT_EQ(delta_versions, 2);
}

TEST_F(PlannerTest, RecursiveScanComesFirst) {
  // Paper §5.1: the recursive table becomes the leftmost join input even
  // when written last in the body.
  Load(
      "sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.\n"
      "sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).");
  auto plans = Logical();
  ASSERT_TRUE(plans.ok());
  const LogicalRulePlan* delta = nullptr;
  for (const auto& p : plans.value()) {
    if (p.delta_atom >= 0) delta = &p;
  }
  ASSERT_NE(delta, nullptr);
  // Descend to the leftmost scan.
  const LogicalOp* node = delta->root.get();
  while (!node->children.empty()) node = node->children[0].get();
  EXPECT_EQ(node->kind, LogicalOpKind::kScan);
  EXPECT_TRUE(node->is_delta);
  EXPECT_EQ(node->atom.predicate, "sg");
}

TEST_F(PlannerTest, SelectionPushedBelowLaterJoins) {
  // X != Y involves only the first atom's variables, so it must sit below
  // the join with the second atom.
  Load("q(X, Y) :- arc(X, Y), X != Y, arc(Y, Z), Z != X.");
  auto plans = Logical();
  ASSERT_TRUE(plans.ok());
  const std::string tree = plans.value()[0].root->ToString();
  // The Select(X != Y) must appear deeper (later in the printed tree)
  // than the top-level join, i.e. the first Join line precedes it.
  const size_t join_pos = tree.find("Join");
  const size_t sel_pos = tree.find("Select(X != Y)");
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(sel_pos, std::string::npos);
  EXPECT_GT(sel_pos, join_pos);
}

TEST_F(PlannerTest, AssignmentBecomesBind) {
  Load("q(X, C) :- arc(X, Y), C = X + Y.");
  auto plans = Logical();
  ASSERT_TRUE(plans.ok());
  EXPECT_NE(plans.value()[0].root->ToString().find("Bind(C = "),
            std::string::npos);
}

TEST_F(PlannerTest, ThreeRecursiveGoalsRejected) {
  Load(
      "t(X, Y) :- arc(X, Y).\n"
      "t(X, W) :- t(X, Y), t(Y, Z), t(Z, W).");
  auto plans = Logical();
  EXPECT_EQ(plans.status().code(), StatusCode::kUnsupported);
}

TEST_F(PlannerTest, ApspGetsDualReplicas) {
  // Paper §4.3: path is partitioned on both join positions; each replica
  // is probed by the other delta version.
  Load(
      "path(A, B, min<D>) :- warc(A, B, D).\n"
      "path(A, B, min<D>) :- path(A, C, D1), path(C, B, D2), D = D1 + D2.");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const SccPlan* rec = nullptr;
  for (const auto& scc : plan.value().sccs) {
    if (scc.recursive) rec = &scc;
  }
  ASSERT_NE(rec, nullptr);
  auto ids = rec->ReplicasOf("path");
  ASSERT_EQ(ids.size(), 2u);
  std::set<uint32_t> cols;
  for (int id : ids) {
    cols.insert(rec->replicas[id].partition_col);
    EXPECT_TRUE(rec->replicas[id].needs_join_index);
  }
  EXPECT_EQ(cols, (std::set<uint32_t>{0, 1}));
}

TEST_F(PlannerTest, LinearRecursionSingleReplica) {
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const SccPlan& scc = plan.value().sccs.back();
  auto ids = scc.ReplicasOf("tc");
  ASSERT_EQ(ids.size(), 1u);
  // Partitioned on the join key Z = column 1 of tc(X, Z).
  EXPECT_EQ(scc.replicas[ids[0]].partition_col, 1u);
  EXPECT_FALSE(scc.replicas[ids[0]].needs_join_index);
}

TEST_F(PlannerTest, HashJoinHeuristicForSharedKeyVariable) {
  // Two base atoms probed on the same variable P → hash joins (§5.2.1).
  Load("q(X, Y) :- arc(P, X), arc(P, Y), X != Y.");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  bool saw_hash = false;
  for (const auto& scc : plan.value().sccs) {
    for (const auto& rule : scc.base_rules) {
      for (const auto& step : rule.steps) {
        if (step.kind == StepKind::kProbeBaseHash) saw_hash = true;
      }
    }
  }
  EXPECT_TRUE(saw_hash);
  EXPECT_EQ(plan.value().base_indexes.size(), 1u);  // arc@0, shared.
}

TEST_F(PlannerTest, UnsharedKeyProbesHashIndex) {
  // TC's delta rule probes arc on a key no other base atom shares. The
  // paper's §5.2.1 heuristic would pick a B+-tree index join here; the
  // planner serves every bound base probe from a hash index instead.
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const SccPlan& scc = plan.value().sccs.back();
  ASSERT_EQ(scc.delta_rules.size(), 1u);
  ASSERT_EQ(scc.delta_rules[0].steps.size(), 1u);
  const Step& probe = scc.delta_rules[0].steps[0];
  EXPECT_EQ(probe.kind, StepKind::kProbeBaseHash);
  EXPECT_EQ(probe.relation, "arc");
  EXPECT_EQ(probe.probe_col, 0u);
  // The only index the plan requests is that hash index.
  const auto& requests = plan.value().base_indexes;
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(probe.base_index_id, 0);
  EXPECT_EQ(requests[0].relation, "arc");
  EXPECT_EQ(requests[0].col, 0u);
}

TEST_F(PlannerTest, CartesianFallsBackToScan) {
  Load("q(X, Y) :- organizer(X), organizer(Y).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const auto& rule = plan.value().sccs[0].base_rules[0];
  ASSERT_EQ(rule.steps.size(), 1u);
  EXPECT_EQ(rule.steps[0].kind, StepKind::kScanBase);
}

TEST_F(PlannerTest, UnitRuleForConstantSeed) {
  Load(
      "sp(T, min<C>) :- T = 0, C = 0.\n"
      "sp(T2, min<C>) :- sp(T1, C1), warc(T1, T2, C2), C = C1 + C2.");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const SccPlan& scc = plan.value().sccs.back();
  ASSERT_EQ(scc.base_rules.size(), 1u);
  EXPECT_TRUE(scc.base_rules[0].driving_is_unit);
}

TEST_F(PlannerTest, WireFormatsPerAggregate) {
  Load(
      "attend(X) :- organizer(X).\n"
      "cnt(Y, count<X>) :- attend(X), friend(Y, X).\n"
      "attend(X) :- cnt(X, N), N >= 3.");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const AggSpec& cnt = plan.value().agg_specs.at("cnt");
  EXPECT_EQ(cnt.func, AggFunc::kCount);
  EXPECT_EQ(cnt.group_arity, 1u);
  EXPECT_EQ(cnt.stored_arity, 2u);
  EXPECT_EQ(cnt.wire_arity, 2u);
  const AggSpec& attend = plan.value().agg_specs.at("attend");
  EXPECT_EQ(attend.func, AggFunc::kNone);
  EXPECT_EQ(attend.wire_arity, 1u);
}

TEST_F(PlannerTest, SumWireCarriesContributorAndValue) {
  catalog_.Put(Relation("matrix", Schema::Ints(3)));
  Load(
      "rank(X, sum<(X, I)>) :- matrix(X, _, _), I = 0.15 / 10.0.\n"
      "rank(X, sum<(Y, K)>) :- rank(Y, C), matrix(Y, X, D), "
      "K = 0.85 * (C / D).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AggSpec& rank = plan.value().agg_specs.at("rank");
  EXPECT_EQ(rank.func, AggFunc::kSum);
  EXPECT_EQ(rank.wire_arity, 3u);  // group + contributor + value.
  EXPECT_EQ(rank.value_type, ColumnType::kDouble);
}

TEST_F(PlannerTest, MutualRecursionSharesScc) {
  Load(
      "attend(X) :- organizer(X).\n"
      "cnt(Y, count<X>) :- attend(X), friend(Y, X).\n"
      "attend(X) :- cnt(X, N), N >= 3.");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  // One recursive SCC containing both predicates and their delta rules.
  const SccPlan* rec = nullptr;
  for (const auto& scc : plan.value().sccs) {
    if (scc.recursive) rec = &scc;
  }
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->derived_preds.size(), 2u);
  EXPECT_EQ(rec->delta_rules.size(), 2u);
  EXPECT_EQ(rec->base_rules.size(), 1u);
}

TEST_F(PlannerTest, RegistersAreTyped) {
  Load("q(X, C) :- warc(X, _, W), C = W * 0.5.");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const PhysicalRule& rule = plan.value().sccs[0].base_rules[0];
  EXPECT_GE(rule.num_regs, 2u);
  // The bound C register must be double.
  bool saw_double = false;
  for (ColumnType t : rule.reg_types) {
    saw_double |= t == ColumnType::kDouble;
  }
  EXPECT_TRUE(saw_double);
}

TEST_F(PlannerTest, UnpartitionableRecursiveProbeRejected) {
  // The two recursive goals only connect through a base atom, so the probe
  // key is not a delta-tuple column → cannot stay partition-local.
  Load(
      "p(X, Y) :- arc(X, Y).\n"
      "p(X, W) :- p(X, Y), arc(Y, Z), p(Z, W).");
  auto plan = Physical();
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST_F(PlannerTest, NegationCompilesToAntiJoin) {
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "node(X) :- arc(X, _).\n"
      "unreach(X, Y) :- node(X), node(Y), !tc(X, Y).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool saw_anti = false;
  for (const auto& scc : plan.value().sccs) {
    for (const auto& rule : scc.base_rules) {
      for (const auto& step : rule.steps) {
        if (step.kind == StepKind::kAntiJoinIndex) {
          saw_anti = true;
          EXPECT_EQ(step.relation, "tc");
          EXPECT_GE(step.probe_reg, 0);
          EXPECT_EQ(step.eq_checks.size(), 1u);  // Second bound column.
        }
      }
    }
  }
  EXPECT_TRUE(saw_anti);
}

TEST_F(PlannerTest, EmptinessTestCompilesToAntiScan) {
  Load(
      "node(X) :- arc(X, _).\n"
      "isolated(X) :- node(X), !warc(_, _, _).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool saw_scan = false;
  for (const auto& scc : plan.value().sccs) {
    for (const auto& rule : scc.base_rules) {
      for (const auto& step : rule.steps) {
        saw_scan |= step.kind == StepKind::kAntiJoinScan;
      }
    }
  }
  EXPECT_TRUE(saw_scan);
}

TEST_F(PlannerTest, CheckVersionsAreHeadBoundAndCompiledOnlyWhenAugmented) {
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).");
  auto logical = Logical();
  ASSERT_TRUE(logical.ok());
  auto plain = BuildPhysicalPlan(program_, *analysis_, logical.value());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain.value().sccs[0].check_rules.empty());
  auto plan = BuildPhysicalPlan(program_, *analysis_, logical.value(),
                                /*build_update_rules=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().check_ineligible_preds.empty());
  const SccPlan& scc = plan.value().sccs[0];
  ASSERT_EQ(scc.check_rules.size(), 2u);
  // A check version adds no replica: same-SCC goals are not joined.
  EXPECT_EQ(scc.replicas.size(), plain.value().sccs[0].replicas.size());
  for (const PhysicalRule& rule : scc.check_rules) {
    EXPECT_TRUE(rule.is_check);
    EXPECT_EQ(rule.driving_relation, "tc");  // Driven by the head fact.
    EXPECT_EQ(rule.driving_replica, -1);
    ASSERT_EQ(rule.steps.size(), 1u);
    // Both versions join arc once the head bound X and Y.
    EXPECT_EQ(rule.steps[0].relation, "arc");
  }
  // The recursive rule's tc(X, Z) is rebuilt from the registers: its head
  // packs the one same-SCC fact, 2 words. The base rule's head is empty.
  const PhysicalRule& rec = scc.check_rules[1];
  ASSERT_EQ(rec.check_atoms.size(), 1u);
  EXPECT_EQ(rec.check_atoms[0].pred_id, scc.PredIdOf("tc"));
  EXPECT_EQ(rec.check_atoms[0].width, 2u);
  EXPECT_EQ(rec.head.wire_exprs.size(), 2u);
  EXPECT_EQ(rec.head.pred_id, scc.PredIdOf("tc"));  // Still the fact's.
  EXPECT_EQ(rec.steps[0].probe_col, 1u);  // arc(Z, Y) probed on Y.
  EXPECT_TRUE(scc.check_rules[0].check_atoms.empty());
  EXPECT_TRUE(scc.check_rules[0].head.wire_exprs.empty());

  // Non-linear TC, with arc binding Z (bare, it has no check version; see
  // the next test): both same-SCC facts pack into 4 head words, in body
  // order — tc(X, Z) then tc(Z, Y).
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), tc(Z, Y), arc(X, Z).");
  auto nl_logical = Logical();
  ASSERT_TRUE(nl_logical.ok());
  auto nl = BuildPhysicalPlan(program_, *analysis_, nl_logical.value(),
                              /*build_update_rules=*/true);
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  const SccPlan& nl_scc = nl.value().sccs[0];
  ASSERT_EQ(nl_scc.check_rules.size(), 2u);
  const PhysicalRule& nl_rec = nl_scc.check_rules[1];
  ASSERT_EQ(nl_rec.check_atoms.size(), 2u);
  EXPECT_EQ(nl_rec.check_atoms[0].width, 2u);
  EXPECT_EQ(nl_rec.check_atoms[1].width, 2u);
  ASSERT_EQ(nl_rec.head.wire_exprs.size(), 4u);
  // tc(X, Z)'s Z and tc(Z, Y)'s Z read the one register arc bound.
  EXPECT_EQ(nl_rec.head.wire_exprs[1].reg, nl_rec.head.wire_exprs[2].reg);
  EXPECT_TRUE(nl_scc.check_rules[0].head.wire_exprs.empty());
}

TEST_F(PlannerTest, RulesWithUnboundSameSccGoalsHaveNoCheckVersion) {
  // Non-linear TC: nothing but tc binds Z, so tc(X, Z) cannot be looked up
  // by key, and deletes into this SCC must recompute.
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), tc(Z, Y).");
  auto logical = Logical();
  ASSERT_TRUE(logical.ok());
  auto plan = BuildPhysicalPlan(program_, *analysis_, logical.value(),
                                /*build_update_rules=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().sccs[0].check_rules.empty());
  EXPECT_EQ(plan.value().check_ineligible_preds,
            std::vector<std::string>{"tc"});
}

TEST_F(PlannerTest, MinMaxCheckVersionsNeedCopyForm) {
  // cc.dl: the check versions bind cc2's group Y only. The base rules emit
  // the value they yield (Y); the recursive ones name the same-SCC group
  // X, one word, whose value is copied into the head.
  Load(
      "cc2(Y, min<Y>) :- arc(Y, _).\n"
      "cc2(Y, min<Y>) :- arc(_, Y).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).\n"
      "cc(Y, min<Z>) :- cc2(Y, Z).");
  auto logical = Logical();
  ASSERT_TRUE(logical.ok());
  auto plan = BuildPhysicalPlan(program_, *analysis_, logical.value(),
                                /*build_update_rules=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().check_ineligible_preds.empty());
  const SccPlan& scc = plan.value().sccs[0];
  ASSERT_EQ(scc.check_rules.size(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    const PhysicalRule& rule = scc.check_rules[r];
    EXPECT_EQ(rule.driving_relation, "cc2");
    ASSERT_EQ(rule.head.wire_exprs.size(), 1u) << r;
    ASSERT_EQ(rule.check_atoms.size(), r < 2 ? 0u : 1u) << r;
    if (r >= 2) EXPECT_EQ(rule.check_atoms[0].width, 1u);
  }
  // The roll-up reads cc2 from an earlier SCC: it emits cc2's value.
  const SccPlan& rollup = plan.value().sccs[1];
  ASSERT_EQ(rollup.check_rules.size(), 1u);
  EXPECT_TRUE(rollup.check_rules[0].check_atoms.empty());
  EXPECT_EQ(rollup.check_rules[0].head.wire_exprs.size(), 1u);

  // Rules whose value is not a copy of one same-SCC goal's have none.
  const char* ineligible[] = {
      // SSSP: the value is computed.
      "sp(To, min<C>) :- To = 0, C = 0.\n"
      "sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
      // The value is also a join key.
      "p(Y, min<Z>) :- arc(Y, Z).\n"
      "p(Y, min<Z>) :- p(X, Z), warc(X, Y, Z).",
      // Count heads.
      "d(X, count<Y>) :- arc(X, Y).",
  };
  for (const char* text : ineligible) {
    Load(text);
    auto lp = Logical();
    ASSERT_TRUE(lp.ok());
    auto pp = BuildPhysicalPlan(program_, *analysis_, lp.value(),
                                /*build_update_rules=*/true);
    ASSERT_TRUE(pp.ok()) << pp.status().ToString();
    EXPECT_TRUE(pp.value().sccs[0].check_rules.empty()) << text;
    EXPECT_EQ(pp.value().check_ineligible_preds,
              std::vector<std::string>{pp.value().sccs[0].derived_preds[0]})
        << text;
  }
}

TEST_F(PlannerTest, ShardColumnIsTheLowestProofInvariantColumn) {
  struct Case {
    const char* program;
    const char* pred;
    int shard_col;
  };
  const Case cases[] = {
      // tc.dl: X stays in column 0 of every tc the rule touches.
      {"tc(X, Y) :- arc(X, Y).\n"
       "tc(X, Y) :- tc(X, Z), arc(Z, Y).",
       "tc", 0},
      // Left-recursive TC keeps Y in column 1.
      {"tc(X, Y) :- arc(X, Y).\n"
       "tc(X, Y) :- arc(X, Z), tc(Z, Y).",
       "tc", 1},
      // The fuzz generator's extra shape keeps X in column 0 too.
      {"p(X, Y) :- arc(X, Y).\n"
       "p(X, Y) :- p(X, Z), arc(Z, Y).\n"
       "p(X, Y) :- p(X, Z), arc(Y, Z).",
       "p", 0},
      // Mutual recursion: every predicate of the SCC agrees on column 0.
      {"odd(X, Y) :- arc(X, Y).\n"
       "even(X, Y) :- odd(X, Z), arc(Z, Y).\n"
       "odd(X, Y) :- even(X, Z), arc(Z, Y).",
       "odd", 0},
      // Non-linear TC: tc(Z, Y) moves column 0, tc(X, Z) column 1.
      {"tc(X, Y) :- arc(X, Y).\n"
       "tc(X, Y) :- tc(X, Z), tc(Z, Y).",
       "tc", -1},
      {"sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.\n"
       "sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).",
       "sg", -1},
      {"reach(X) :- organizer(X).\n"
       "reach(Y) :- reach(X), arc(X, Y).",
       "reach", -1},
      // An aggregate SCC is never sharded.
      {"cc2(Y, min<Y>) :- arc(Y, _).\n"
       "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).",
       "cc2", -1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.program);
    Load(c.program);
    auto plan = Physical();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const SccPlan* scc = nullptr;
    for (const SccPlan& s : plan.value().sccs) {
      if (s.PredIdOf(c.pred) >= 0) scc = &s;
    }
    ASSERT_NE(scc, nullptr);
    EXPECT_EQ(scc->shard_col, c.shard_col);
    EXPECT_EQ(scc->ToString().find("shard col") != std::string::npos,
              c.shard_col >= 0);
  }
}

TEST_F(PlannerTest, InsertRecomputeListsAggregatesWithNonMonotoneReaders) {
  const auto recompute = [this](const std::string& src) {
    Load(src);
    auto logical = Logical();
    EXPECT_TRUE(logical.ok());
    auto plan = BuildPhysicalPlan(program_, *analysis_, logical.value(),
                                  /*build_update_rules=*/true);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan.value().insert_recompute_preds
                     : std::vector<std::string>{"<plan failed>"};
  };
  const std::string cc =
      "cc2(Y, min<Y>) :- arc(Y, _).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n";
  using Names = std::vector<std::string>;
  // Monotone readers: cc2's own recursive rule, a roll-up, a roll-up
  // through a join, and an arithmetic use inside the SCC (SSSP).
  EXPECT_EQ(recompute(cc + "cc(Y, min<Z>) :- cc2(Y, Z).\n"), Names{});
  EXPECT_EQ(recompute(cc + "up(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"),
            Names{});
  EXPECT_EQ(recompute("sp(T, min<C>) :- T = 0, C = 0.\n"
                      "sp(T, min<C>) :- sp(F, C1), warc(F, T, W), "
                      "C = C1 + W.\n"),
            Names{});
  // A leaf count is maintained in place too.
  EXPECT_EQ(recompute("deg(X, count<Y>) :- arc(X, Y).\n"), Names{});
  // Readers that are not monotone in the value.
  EXPECT_EQ(recompute(cc + "q(X, C) :- cc2(X, C).\n"), Names{"cc2"});
  EXPECT_EQ(recompute(cc + "q(X, max<Z>) :- cc2(X, Z).\n"), Names{"cc2"});
  EXPECT_EQ(recompute(cc + "q(X, min<Z>) :- cc2(X, Z), Z > 3.\n"),
            Names{"cc2"});
  EXPECT_EQ(recompute(cc + "q(Y, min<Z>) :- cc2(X, Z), arc(Z, Y).\n"),
            Names{"cc2"});
  EXPECT_EQ(recompute(cc + "q(Z, min<Z>) :- cc2(X, Z).\n"), Names{"cc2"});
  EXPECT_EQ(recompute("deg(X, count<Y>) :- arc(X, Y).\n"
                      "q(X, min<C>) :- deg(X, C).\n"),
            Names{"deg"});
  EXPECT_EQ(recompute("w(X, sum<(Y, K)>) :- arc(X, Y), K = 1.\n"),
            Names{"w"});
}

TEST_F(PlannerTest, ExplainablePlanToString) {
  Load(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).");
  auto plan = Physical();
  ASSERT_TRUE(plan.ok());
  const std::string s = plan.value().ToString();
  EXPECT_NE(s.find("tc"), std::string::npos);
  EXPECT_NE(s.find("base indexes"), std::string::npos);
}

}  // namespace
}  // namespace dcdatalog
