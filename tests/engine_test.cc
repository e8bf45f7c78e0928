// Engine- and facade-level tests: worker-count invariance, statistics,
// abort handling, multi-SCC programs, string columns, re-runs, explain.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "concurrent/worker_pool.h"
#include "core/dcdatalog.h"
#include "core/dws_controller.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

constexpr char kTc[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";

EngineOptions Opts(uint32_t workers, CoordinationMode mode) {
  EngineOptions o;
  o.num_workers = workers;
  o.coordination = mode;
  return o;
}

TEST(EngineTest, ResultInvariantAcrossWorkerCounts) {
  Graph g = GenerateGnp(50, 0.05, 77);
  std::set<std::vector<uint64_t>> first;
  for (uint32_t workers : {1, 2, 3, 8}) {
    DCDatalog db(Opts(workers, CoordinationMode::kDws));
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kTc).ok());
    auto stats = db.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    auto rows = RowSet(*db.ResultFor("tc"));
    if (first.empty()) {
      first = rows;
    } else {
      EXPECT_EQ(rows, first) << workers << " workers";
    }
  }
  EXPECT_FALSE(first.empty());
}

TEST(EngineTest, StarHubTcMatchesOracle) {
  // TC over a star/hub graph puts the whole δ-backlog on the hub owner's
  // partition: one worker grinds while the others park and re-check
  // termination with ring traffic in flight. That is the schedule under
  // which the asynchronous modes once lost tuples (a drain counted as
  // consumed while the worker's active flag was down), so every strategy
  // and worker count is diffed against the reference oracle.
  Graph g = GenerateStarHub(128, 9);
  std::set<std::vector<uint64_t>> oracle;
  {
    DCDatalog db(Opts(1, CoordinationMode::kGlobal));
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kTc).ok());
    auto ref = ReferenceEvaluate(*db.program(), db.catalog());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    oracle = RowSet(ref.value().at("tc"));
  }
  ASSERT_FALSE(oracle.empty());
  for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                CoordinationMode::kDws}) {
    for (uint32_t workers : {1u, 2u, 4u}) {
      DCDatalog db(Opts(workers, mode));
      db.AddGraph(g, "arc");
      ASSERT_TRUE(db.LoadProgramText(kTc).ok());
      auto stats = db.Run();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(RowSet(*db.ResultFor("tc")), oracle)
          << CoordinationModeName(mode) << " x" << workers;
    }
  }
}

TEST(EngineTest, WorkerPoolCapsTheWorkerCount) {
  // A pool grants whole gangs only, so an engine given a 2-thread pool runs
  // a 4-worker request as 2 workers — with the oracle's result, since no
  // result depends on the worker count.
  Graph g = GenerateGnp(50, 0.05, 77);
  WorkerPool pool(2);
  for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                CoordinationMode::kDws}) {
    SCOPED_TRACE(CoordinationModeName(mode));
    DCDatalog db(Opts(1, mode));
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kTc).ok());
    auto ref = ReferenceEvaluate(*db.program(), db.catalog());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    EngineOptions o = Opts(4, mode);
    o.worker_pool = &pool;
    Engine engine(&db.catalog(), o);
    EXPECT_EQ(engine.options().num_workers, 2u);
    auto stats = engine.Run(*db.program());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().worker_metrics.size(), 2u);
    const Relation* tc = db.catalog().Find("tc");
    ASSERT_NE(tc, nullptr);
    EXPECT_EQ(tc->size(), ref.value().at("tc").size());
    EXPECT_EQ(RowSet(*tc), RowSet(ref.value().at("tc")));
  }
  EXPECT_EQ(pool.InUse(), 0u);
}

TEST(EngineTest, StatsAreMeaningful) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  for (uint64_t i = 0; i < 20; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_sccs, 1u);
  EXPECT_GT(stats.value().total_local_iterations, 0u);
  EXPECT_GT(stats.value().tuples_routed, 0u);
  // Every routed tuple is eventually offered to a Gather.
  EXPECT_EQ(stats.value().merges, stats.value().tuples_routed);
  // 21 vertices chain: 210 tc facts.
  EXPECT_EQ(stats.value().accepts, 210u);
  EXPECT_GT(stats.value().seconds, 0.0);
  EXPECT_NE(stats.value().ToString().find("EvalStats"), std::string::npos);
}

TEST(EngineTest, MaxIterationsAborts) {
  // PageRank with epsilon 0 never converges, and `up` counts forever; the
  // guard must fire in every mode. Global leaves through the barrier's
  // serial section, so every worker must exit in the same round; DWS sees
  // the abort in its wait and in InactiveWait.
  const char* const programs[] = {
      "rank(X, sum<(X, I)>) :- matrix(X, _, _), I = 0.5.\n"
      "rank(X, sum<(Y, K)>) :- rank(Y, C), matrix(Y, X, D), "
      "K = 0.85 * (C / D).",
      "up(X, C) :- matrix(X, _, _), C = 0.\n"
      "up(X, C) :- up(X, C1), C = C1 + 1.",
  };
  for (const char* program : programs) {
    for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                  CoordinationMode::kDws}) {
      for (uint32_t workers : {1u, 4u}) {
        SCOPED_TRACE(std::string(CoordinationModeName(mode)) + " x" +
                     std::to_string(workers) + ": " + program);
        DCDatalog db(Opts(workers, mode));
        db.options().max_global_iterations = 20;
        db.options().sum_epsilon = 0.0;
        Relation matrix("matrix", Schema::Ints(3));
        matrix.Append({0, 1, WordFromInt(1)});
        matrix.Append({1, 0, WordFromInt(1)});
        db.catalog().Put(std::move(matrix));
        ASSERT_TRUE(db.LoadProgramText(program).ok());
        auto stats = db.Run();
        ASSERT_FALSE(stats.ok());
        EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
      }
    }
  }
}

TEST(EngineTest, MultiSccPipeline) {
  // tc feeds reach, which feeds counts — three SCCs evaluated in order.
  DCDatalog db(Opts(3, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(5, 6);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(
                    "tc(X, Y) :- arc(X, Y).\n"
                    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
                    "reach(Y) :- tc(0, Y).\n"
                    "total(count<Y>) :- reach(Y).")
                  .ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().num_sccs, 3u);
  EXPECT_EQ(db.ResultFor("reach")->size(), 3u);
  ASSERT_EQ(db.ResultFor("total")->size(), 1u);
  EXPECT_EQ(IntFromWord(db.ResultFor("total")->Row(0)[0]), 3);
}

TEST(EngineTest, StringColumnsEndToEnd) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Relation parent("parent", Schema({{"child", ColumnType::kString},
                                    {"parent", ColumnType::kString}}));
  const uint64_t alice = db.Intern("alice");
  const uint64_t bob = db.Intern("bob");
  const uint64_t carol = db.Intern("carol");
  parent.Append({alice, bob});
  parent.Append({bob, carol});
  db.catalog().Put(std::move(parent));
  ASSERT_TRUE(db.LoadProgramText(
                    "ancestor(X, Y) :- parent(X, Y).\n"
                    "ancestor(X, Y) :- ancestor(X, Z), parent(Z, Y).")
                  .ok());
  ASSERT_TRUE(db.Run().ok());
  auto rows = RowSet(*db.ResultFor("ancestor"));
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows.count({alice, carol}) > 0);
}

TEST(EngineTest, ConstantInBodyAtomFilters) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(7, 8);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText("from_zero(Y) :- arc(0, Y).").ok());
  ASSERT_TRUE(db.Run().ok());
  EXPECT_EQ(db.ResultFor("from_zero")->size(), 1u);
  EXPECT_EQ(db.ResultFor("from_zero")->Row(0)[0], 1u);
}

TEST(EngineTest, RepeatedVariableInAtom) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(1, 1);  // Will be dropped by Canonicalize? Build relation raw.
  Relation arc("arc", Schema::Ints(2));
  arc.Append({1, 1});
  arc.Append({1, 2});
  arc.Append({3, 3});
  db.catalog().Put(std::move(arc));
  ASSERT_TRUE(db.LoadProgramText("selfloop(X) :- arc(X, X).").ok());
  ASSERT_TRUE(db.Run().ok());
  auto rows = RowSet(*db.ResultFor("selfloop"));
  EXPECT_EQ(rows, (std::set<std::vector<uint64_t>>{{1}, {3}}));
}

TEST(EngineTest, EmptyBaseRelationYieldsEmptyResults) {
  DCDatalog db(Opts(4, CoordinationMode::kDws));
  db.catalog().Put(Relation("arc", Schema::Ints(2)));
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(db.ResultFor("tc")->size(), 0u);
}

TEST(EngineTest, RerunReplacesResults) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(0, 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.Run().ok());
  EXPECT_EQ(db.ResultFor("tc")->size(), 1u);
  // Re-running after growing the input reflects the new data.
  Graph g2;
  g2.AddEdge(0, 1);
  g2.AddEdge(1, 2);
  db.AddGraph(g2, "arc");
  ASSERT_TRUE(db.Run().ok());
  EXPECT_EQ(db.ResultFor("tc")->size(), 3u);
}

TEST(EngineTest, RunWithoutProgramFails) {
  DCDatalog db;
  EXPECT_FALSE(db.Run().ok());
  EXPECT_FALSE(db.ExplainLogical().ok());
}

TEST(EngineTest, LoadProgramFileWorks) {
  const std::string path = ::testing::TempDir() + "/prog.dl";
  FILE* f = fopen(path.c_str(), "w");
  fputs(kTc, f);
  fclose(f);
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(0, 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramFile(path).ok());
  EXPECT_FALSE(db.LoadProgramFile("/nonexistent/x.dl").ok());
  ASSERT_TRUE(db.Run().ok());
  std::remove(path.c_str());
}

TEST(EngineTest, ExplainPlansMentionStructure) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(0, 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto logical = db.ExplainLogical();
  ASSERT_TRUE(logical.ok());
  EXPECT_NE(logical.value().find("Scan(δtc"), std::string::npos);
  EXPECT_NE(logical.value().find("recursive"), std::string::npos);
  auto physical = db.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  EXPECT_NE(physical.value().find("replicas"), std::string::npos);
}

TEST(EngineTest, PartialAggregationReducesTraffic) {
  // CC on a dense-ish graph: partial aggregation must fold some tuples.
  DCDatalog db(Opts(3, CoordinationMode::kDws));
  Graph g = GenerateGnp(60, 0.08, 5);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(
                    "cc2(Y, min<Y>) :- arc(Y, _).\n"
                    "cc2(Y, min<Y>) :- arc(_, Y).\n"
                    "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"
                    "cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).")
                  .ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().tuples_folded, 0u);
}

TEST(EngineTest, TinyQueueCapacityStillCompletes) {
  // spsc_capacity = 2 clamps every ring to its minimum, so pushes inside a
  // local iteration keep finding full rings and gather: under non-linear
  // TC they append to the very table the iteration drives from while it
  // walks its delta's row ids (TC's local rule merges there through no
  // ring at all). CC's min head folds its wires until the iteration's
  // flush, so its gathers fall between iterations; there a group bettered
  // twice enters the delta twice and drives at its latest value both times.
  const std::string cc =
      "cc2(Y, min<Y>) :- arc(Y, _).\n"
      "cc2(Y, min<Y>) :- arc(_, Y).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).\n"
      "cc(Y, min<Z>)  :- cc2(Y, Z).\n";
  struct Case {
    std::string program;
    std::string pred;
    Graph graph;
    bool ships_mid_iteration;
  };
  // Non-linear TC routes every derivation on a join key; TC's own delta
  // rule is local and merges without Distribute.
  const std::string nonlinear_tc =
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n";
  const std::vector<Case> cases = {
      {kTc, "tc", GenerateGnp(100, 0.035, 41), true},
      {nonlinear_tc, "tc", GenerateGnp(100, 0.035, 41), true},
      {cc, "cc", GenerateGnp(400, 0.006, 41), false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pred);
    std::set<std::vector<uint64_t>> oracle;
    {
      DCDatalog db(Opts(1, CoordinationMode::kGlobal));
      db.AddGraph(c.graph, "arc");
      ASSERT_TRUE(db.LoadProgramText(c.program).ok());
      auto ref = ReferenceEvaluate(*db.program(), db.catalog());
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      oracle = RowSet(ref.value().at(c.pred));
    }
    ASSERT_FALSE(oracle.empty());
    // Drains that landed inside one of the same worker's iteration spans:
    // the schedule this test is about.
    uint64_t drains_inside_iterations = 0;
    for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                  CoordinationMode::kDws}) {
      for (uint32_t workers : {2u, 4u}) {
        EngineOptions opts = Opts(workers, mode);
        opts.spsc_capacity = 2;
        opts.enable_trace = true;
        DCDatalog db(opts);
        db.AddGraph(c.graph, "arc");
        ASSERT_TRUE(db.LoadProgramText(c.program).ok());
        auto stats = db.Run();
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(RowSet(*db.ResultFor(c.pred)), oracle)
            << CoordinationModeName(mode) << " x" << workers;
        const std::vector<TraceEvent>& trace = stats.value().trace;
        for (const TraceEvent& it : trace) {
          if (it.kind != TraceEventKind::kIteration) continue;
          for (const TraceEvent& d : trace) {
            drains_inside_iterations +=
                d.kind == TraceEventKind::kDrain && d.worker == it.worker &&
                d.start_ns > it.start_ns && d.start_ns < it.end_ns;
          }
        }
      }
    }
    if (c.ships_mid_iteration) {
      EXPECT_GT(drains_inside_iterations, 0u);
    }
  }
}

TEST(EngineTest, LocalRulesMatchOracle) {
  // A local rule (`local` in the physical plan) derives only facts of its
  // own worker's partition: each emitted batch skips Distribute and merges
  // at once, into the table the iteration drives from. The last program's
  // rule also probes that table while it merges into it. Tiny rings make
  // the base rules' shipments gather inside those iterations too.
  struct Case {
    const char* program;
    const char* pred;
  };
  const Case cases[] = {
      {kTc, "tc"},
      {"tc(X, Y) :- arc(X, Y).\n"
       "tc(X, Y) :- arc(X, Z), tc(Z, Y).\n",
       "tc"},
      {"odd(X, Y) :- arc(X, Y).\n"
       "even(X, Y) :- odd(X, Z), arc(Z, Y).\n"
       "odd(X, Y) :- even(X, Z), arc(Z, Y).\n",
       "even"},
      // examples/queries/unreachable.dl: negation over a local SCC.
      {"tc(X, Y) :- arc(X, Y).\n"
       "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
       "node(X) :- arc(X, _).\n"
       "node(X) :- arc(_, X).\n"
       "unreach(X, Y) :- node(X), node(Y), !tc(X, Y).\n",
       "unreach"},
      {"p(X, Y) :- arc(X, Y).\n"
       "p(X, Y) :- p(X, Z), p(X, W), arc(W, Y), Z != Y.\n",
       "p"},
  };
  const Graph graphs[] = {GenerateGnp(40, 0.06, 13), GenerateStarHub(32, 9)};
  for (const Graph& g : graphs) {
    for (const Case& c : cases) {
      SCOPED_TRACE(c.program);
      std::set<std::vector<uint64_t>> oracle;
      {
        DCDatalog db(Opts(1, CoordinationMode::kGlobal));
        db.AddGraph(g, "arc");
        ASSERT_TRUE(db.LoadProgramText(c.program).ok());
        auto ref = ReferenceEvaluate(*db.program(), db.catalog());
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        oracle = RowSet(ref.value().at(c.pred));
        auto plan = db.ExplainPhysical();
        ASSERT_TRUE(plan.ok());
        EXPECT_NE(plan.value().find(" local"), std::string::npos);
      }
      ASSERT_FALSE(oracle.empty());
      for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                    CoordinationMode::kDws}) {
        for (uint32_t workers : {1u, 2u, 4u}) {
          for (uint32_t capacity : {EngineOptions().spsc_capacity, 2u}) {
            EngineOptions opts = Opts(workers, mode);
            opts.spsc_capacity = capacity;
            DCDatalog db(opts);
            db.AddGraph(g, "arc");
            ASSERT_TRUE(db.LoadProgramText(c.program).ok());
            auto stats = db.Run();
            ASSERT_TRUE(stats.ok()) << stats.status().ToString();
            SCOPED_TRACE(std::string(CoordinationModeName(mode)) + " x" +
                         std::to_string(workers) + " capacity " +
                         std::to_string(capacity));
            // Size too: a fact merged on two workers is one RowSet entry.
            EXPECT_EQ(db.ResultFor(c.pred)->size(), oracle.size());
            EXPECT_EQ(RowSet(*db.ResultFor(c.pred)), oracle);
            const EvalStats& s = stats.value();
            EXPECT_EQ(s.merges, s.tuples_routed);
            EXPECT_EQ(s.tuples_emitted, s.tuples_routed);
            if (workers == 1) {
              EXPECT_EQ(s.self_loop_tuples, s.tuples_routed);
            }
            if (std::string(c.program) == kTc && workers == 4) {
              // Only the base rule routes by hash: at most one shipment per
              // arc row, while the local delta rule's derivations count as
              // self-loop tuples.
              const uint64_t arcs = db.catalog().Find("arc")->size();
              EXPECT_GT(s.tuples_routed, 2 * arcs);
              EXPECT_LE(s.tuples_routed - s.self_loop_tuples, arcs);
            }
          }
        }
      }
    }
  }
}

TEST(EngineTest, TraceEventsCoverRun) {
  Graph g = GenerateGnp(40, 0.06, 5);
  // The wait kinds each mode must never emit: a strategy's waits are its
  // own.
  const std::map<CoordinationMode, std::set<TraceEventKind>> foreign = {
      {CoordinationMode::kGlobal,
       {TraceEventKind::kPark, TraceEventKind::kDwsWait,
        TraceEventKind::kDwsDecision}},
      {CoordinationMode::kDws, {TraceEventKind::kBarrierWait}},
  };
  for (const auto& [mode, banned] : foreign) {
    SCOPED_TRACE(CoordinationModeName(mode));
    EngineOptions opts = Opts(3, mode);
    opts.enable_trace = true;
    DCDatalog db(opts);
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kTc).ok());
    auto stats = db.Run();
    ASSERT_TRUE(stats.ok());
    const auto& trace = stats.value().trace;
    ASSERT_FALSE(trace.empty());
    bool saw_iteration = false, saw_barrier = false, saw_drain = false;
    std::set<uint32_t> workers;
    std::set<uint32_t> scc_begins;
    for (const TraceEvent& ev : trace) {
      EXPECT_LE(ev.start_ns, ev.end_ns);
      if (!TraceEventIsSpan(ev.kind)) {
        EXPECT_EQ(ev.start_ns, ev.end_ns);
      }
      EXPECT_EQ(banned.count(ev.kind), 0u)
          << "unexpected " << TraceEventKindName(ev.kind);
      workers.insert(ev.worker);
      saw_iteration |= ev.kind == TraceEventKind::kIteration;
      saw_barrier |= ev.kind == TraceEventKind::kBarrierWait;
      saw_drain |= ev.kind == TraceEventKind::kDrain;
      if (ev.kind == TraceEventKind::kSccBegin) scc_begins.insert(ev.worker);
    }
    EXPECT_TRUE(saw_iteration);
    // Global always parks someone at a barrier.
    EXPECT_EQ(saw_barrier, mode == CoordinationMode::kGlobal);
    EXPECT_TRUE(saw_drain);
    EXPECT_EQ(workers.size(), 3u);
    EXPECT_EQ(scc_begins.size(), 3u);  // Every worker marks SCC entry.
  }

  // Tracing off → no events, and no drop accounting.
  DCDatalog db2(Opts(3, CoordinationMode::kGlobal));
  db2.AddGraph(g, "arc");
  ASSERT_TRUE(db2.LoadProgramText(kTc).ok());
  auto stats2 = db2.Run();
  ASSERT_TRUE(stats2.ok());
  EXPECT_TRUE(stats2.value().trace.empty());
  EXPECT_EQ(stats2.value().trace_dropped, 0u);
}

TEST(EngineTest, DwsTraceCarriesDecisionTelemetry) {
  EngineOptions opts = Opts(3, CoordinationMode::kDws);
  opts.enable_trace = true;
  DCDatalog db(opts);
  Graph g = GenerateGnp(60, 0.05, 6);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok());
  size_t decisions = 0;
  size_t iterations = 0;
  for (const TraceEvent& ev : stats.value().trace) {
    iterations += ev.kind == TraceEventKind::kIteration;
    if (ev.kind != TraceEventKind::kDwsDecision) continue;
    ++decisions;
    // Model state must be finite; the controller clamps omega and tau.
    EXPECT_GE(ev.omega, 0.0);
    EXPECT_LE(ev.omega, DwsController::kMaxOmega);
    EXPECT_GE(ev.tau_ns, 0);
    EXPECT_TRUE(std::isfinite(ev.rho));
    EXPECT_TRUE(std::isfinite(ev.lambda));
    EXPECT_TRUE(std::isfinite(ev.mu));
  }
  // Every DWS local iteration is preceded by exactly one Update → there
  // are as many decisions as iterations (modulo ring overwrite, absent
  // here at default capacity).
  ASSERT_EQ(stats.value().trace_dropped, 0u);
  EXPECT_GT(decisions, 0u);
  EXPECT_EQ(decisions, iterations);
}

TEST(EngineTest, TinyTraceRingDropsOldestButCounts) {
  EngineOptions opts = Opts(2, CoordinationMode::kGlobal);
  opts.enable_trace = true;
  opts.trace_ring_capacity = 4;  // Force overwrite on any real run.
  DCDatalog db(opts);
  Graph g = GenerateGnp(50, 0.06, 8);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().trace_dropped, 0u);
  // Survivors: at most capacity per worker per SCC.
  EXPECT_LE(stats.value().trace.size(),
            4u * 2u * stats.value().num_sccs);
  // The latest events survive — every worker's kSccEnd must be present.
  std::set<uint32_t> enders;
  for (const TraceEvent& ev : stats.value().trace) {
    if (ev.kind == TraceEventKind::kSccEnd) enders.insert(ev.worker);
  }
  EXPECT_EQ(enders.size(), 2u);
}

TEST(EngineTest, WorkerMetricsAlwaysPopulated) {
  // Histograms are collected even with tracing off.
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g = GenerateGnp(40, 0.06, 11);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().worker_metrics.size(), 2u);
  uint64_t iterations = 0;
  for (const WorkerMetrics& wm : stats.value().worker_metrics) {
    iterations += wm.iteration_ns.count();
    EXPECT_LE(wm.iteration_ns.Quantile(0.5), wm.iteration_ns.Quantile(0.99));
  }
  EXPECT_EQ(iterations, stats.value().total_local_iterations);
}

TEST(EngineTest, ToStringCoversEveryCounter) {
  // Stamp a distinct sentinel into every public counter field, then check
  // each sentinel surfaces in ToString(). Catches the class of bug where a
  // counter is added to the struct but forgotten in the formatter (which
  // happened to tuples_emitted). When adding a counter: struct, Counters(),
  // and this sentinel list.
  EvalStats s;
  s.seconds = 101.5;
  s.num_sccs = 102;
  s.total_local_iterations = 103;
  s.max_local_iterations = 104;
  s.tuples_routed = 105;
  s.tuples_folded = 106;
  s.tuples_emitted = 107;
  s.blocks_sent = 108;
  s.self_loop_tuples = 109;
  s.merges = 110;
  s.accepts = 111;
  s.cache_hits = 112;
  s.merge_probe_cmps = 115;
  s.pipeline_batches = 116;
  s.pipeline_rows_selected = 117;
  s.idle_wait_seconds = 113.25;
  s.trace_dropped = 114;
  s.update_batches = 118;
  s.update_recomputes = 125;
  s.delta_tuples_in = 119;
  s.rederived_tuples = 120;
  s.update_rows_scanned = 126;
  s.morsels_published = 121;
  s.morsels_stolen = 122;
  s.tuples_stolen = 123;
  const std::string str = s.ToString();
  const auto counters = s.Counters();
  ASSERT_EQ(counters.size(), 25u)
      << "EvalStats grew a field: stamp it above and list it in Counters()";
  std::set<double> sentinels;
  for (const auto& [name, value] : counters) {
    EXPECT_NE(str.find(name), std::string::npos)
        << "counter missing from ToString: " << name;
    sentinels.insert(value);
  }
  // All 25 sentinels distinct → every field is wired to its own name, not
  // copy-pasted from a neighbour.
  EXPECT_EQ(sentinels.size(), 25u);
  EXPECT_NE(str.find("tuples_emitted"), std::string::npos);
  EXPECT_NE(str.find("107"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Every correctness scenario below runs from scratch and as an incremental
// session, and is diffed against the single-threaded reference oracle.

/// How a parameterized run reaches its fixpoint: one from-scratch Run(), or
/// an incremental session seeded with half the EDB whose second half
/// arrives as a streaming update batch. Both must produce identical rows.
enum class EvalMode { kScratch, kIncrementalSplit };

class EnginePipelines : public ::testing::TestWithParam<EvalMode> {
 protected:
  // Runs `program` over `g` loaded as "arc" and returns `pred`'s rows.
  std::set<std::vector<uint64_t>> RunRows(const EngineOptions& o,
                                          const Graph& g,
                                          const std::string& program,
                                          const std::string& pred) {
    DCDatalog db(o);
    if (GetParam() == EvalMode::kScratch) {
      db.AddGraph(g, "arc");
      EXPECT_TRUE(db.LoadProgramText(program).ok());
      auto stats = db.Run();
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return {};
    } else {
      // Seed with the first half of the edges, reach fixpoint, then stream
      // in the second half as one update batch.
      const std::vector<Edge>& edges = g.edges();
      const size_t half = edges.size() / 2;
      Graph seed;
      for (size_t i = 0; i < half; ++i) {
        seed.AddEdge(edges[i].src, edges[i].dst);
      }
      db.AddGraph(seed, "arc");
      EXPECT_TRUE(db.LoadProgramText(program).ok());
      auto begin = db.BeginIncremental();
      EXPECT_TRUE(begin.ok()) << begin.status().ToString();
      if (!begin.ok()) return {};
      UpdateBatch batch;
      for (size_t i = half; i < edges.size(); ++i) {
        batch.ops.push_back(UpdateOp{true, "arc",
                                     {std::to_string(edges[i].src),
                                      std::to_string(edges[i].dst)}});
      }
      auto stats = db.ApplyUpdates(batch);
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return {};
    }
    return RowSet(*db.ResultFor(pred));
  }

  // The reference interpreter's rows for `pred` — the oracle every
  // configuration must match.
  std::set<std::vector<uint64_t>> OracleRows(const Graph& g,
                                             const std::string& program,
                                             const std::string& pred) {
    DCDatalog db(Opts(1, CoordinationMode::kGlobal));
    db.AddGraph(g, "arc");
    EXPECT_TRUE(db.LoadProgramText(program).ok());
    auto ref = ReferenceEvaluate(*db.program(), db.catalog());
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    if (!ref.ok()) return {};
    return RowSet(ref.value().at(pred));
  }
};

TEST_P(EnginePipelines, TcMatchesOracleAcrossWorkerCounts) {
  Graph g = GenerateGnp(50, 0.05, 77);
  auto oracle = OracleRows(g, kTc, "tc");
  ASSERT_FALSE(oracle.empty());
  for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                CoordinationMode::kDws}) {
    for (uint32_t workers : {1, 2, 4}) {
      EXPECT_EQ(RunRows(Opts(workers, mode), g, kTc, "tc"), oracle)
          << workers << " workers, strategy " << static_cast<int>(mode);
    }
  }
}

TEST_P(EnginePipelines, FiltersBindsAndNegationAgree) {
  // Exercises int filters (the batch executor's fast path), arithmetic
  // binds, and both anti-join flavors via negation against a base relation.
  const std::string program =
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "far(X, Y) :- tc(X, Y), Y > 10, X < 40.\n"
      "score(X, S) :- tc(X, Y), S = X * 100 + Y.\n"
      "implied(X, Y) :- tc(X, Y), !arc(X, Y).\n";
  Graph g = GenerateGnp(60, 0.04, 21);
  for (const char* pred : {"far", "score", "implied"}) {
    auto oracle = OracleRows(g, program, pred);
    EXPECT_EQ(RunRows(Opts(3, CoordinationMode::kDws), g, program, pred),
              oracle)
        << pred;
    EXPECT_FALSE(oracle.empty()) << pred;
  }
}

TEST_P(EnginePipelines, AggregatesAgree) {
  const std::string program =
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "best(X, min<Y>) :- tc(X, Y).\n"
      "fanout(X, count<Y>) :- tc(X, Y).\n";
  Graph g = GenerateGnp(40, 0.06, 9);
  for (const char* pred : {"best", "fanout"}) {
    auto oracle = OracleRows(g, program, pred);
    EXPECT_EQ(RunRows(Opts(4, CoordinationMode::kDws), g, program, pred),
              oracle)
        << pred;
    EXPECT_FALSE(oracle.empty()) << pred;
  }
}

TEST_P(EnginePipelines, PipelineCountersCountBatches) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g = GenerateGnp(50, 0.05, 77);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().pipeline_batches, 0u);
  EXPECT_GT(stats.value().pipeline_rows_selected, 0u);
  // Batches are at most kBatchPipelineLanes rows, so there are at least
  // rows / 256 of them; and no batch is counted without admitted rows.
  EXPECT_GE(stats.value().pipeline_rows_selected,
            stats.value().pipeline_batches);
}

INSTANTIATE_TEST_SUITE_P(
    EvalModes, EnginePipelines,
    ::testing::Values(EvalMode::kScratch, EvalMode::kIncrementalSplit),
    [](const ::testing::TestParamInfo<EvalMode>& info) {
      return std::string(info.param == EvalMode::kScratch ? "Scratch"
                                                          : "IncSplit");
    });

TEST(EngineTest, ZeroGroupMinMaxMatchesOracle) {
  // A min/max head with no group columns keeps exactly one row: every wire
  // belongs to that one group, and its value column is not a group key.
  Graph small;
  small.AddEdge(3, 9);
  small.AddEdge(5, 2);
  small.AddEdge(7, 8);
  small.AddEdge(1, 4);
  const std::string program =
      "m(min<Y>) :- arc(_, Y).\n"
      "reach(X, Y) :- arc(X, Y).\n"
      "reach(X, Y) :- reach(X, Z), arc(Z, Y).\n"
      "best(max<Y>) :- reach(_, Y).\n";
  for (const Graph& g : {small, GenerateGnp(40, 0.06, 9)}) {
    std::map<std::string, Relation> oracle;
    {
      DCDatalog db(Opts(1, CoordinationMode::kGlobal));
      db.AddGraph(g, "arc");
      ASSERT_TRUE(db.LoadProgramText(program).ok());
      auto ref = ReferenceEvaluate(*db.program(), db.catalog());
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      oracle = std::move(ref).value();
    }
    for (uint32_t workers : {2u, 4u}) {
      DCDatalog db(Opts(workers, CoordinationMode::kDws));
      db.AddGraph(g, "arc");
      ASSERT_TRUE(db.LoadProgramText(program).ok());
      auto stats = db.Run();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      for (const char* pred : {"m", "best"}) {
        ASSERT_EQ(db.ResultFor(pred)->size(), 1u) << pred << " x" << workers;
        EXPECT_EQ(RowSet(*db.ResultFor(pred)), RowSet(oracle.at(pred)))
            << pred << " x" << workers;
      }
    }
  }
}

TEST(EngineTest, ConstantReplicaDrivingASetHeadMatchesOracle) {
  // low's replica is constant (no group column): its one row sits on
  // worker 0 whatever its value. seen(X) :- low(X) must route its fact to
  // PartitionOf(X), where the base rule routes the same fact; merging it
  // on worker 0 would store it twice. A ring through every vertex makes
  // each value low passes through an arc source, so the seen facts those
  // passing values derive are in the result whatever the merge order.
  const std::string program =
      "low(min<Y>) :- seen(X), arc(X, Y).\n"
      "seen(X) :- low(X).\n"
      "seen(X) :- arc(X, _).\n";
  for (Graph g : {GenerateGnp(40, 0.06, 9), GenerateStarHub(32, 9)}) {
    const uint64_t n = g.num_vertices();
    for (uint64_t v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
    std::map<std::string, Relation> oracle;
    {
      DCDatalog db(Opts(1, CoordinationMode::kGlobal));
      db.AddGraph(g, "arc");
      ASSERT_TRUE(db.LoadProgramText(program).ok());
      auto ref = ReferenceEvaluate(*db.program(), db.catalog());
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      oracle = std::move(ref).value();
    }
    for (CoordinationMode mode : {CoordinationMode::kGlobal,
                                  CoordinationMode::kDws}) {
      for (uint32_t workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(CoordinationModeName(mode)) + " x" +
                     std::to_string(workers));
        DCDatalog db(Opts(workers, mode));
        db.AddGraph(g, "arc");
        ASSERT_TRUE(db.LoadProgramText(program).ok());
        auto stats = db.Run();
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        for (const char* pred : {"low", "seen"}) {
          EXPECT_EQ(db.ResultFor(pred)->size(), oracle.at(pred).size())
              << pred;
          EXPECT_EQ(RowSet(*db.ResultFor(pred)), RowSet(oracle.at(pred)))
              << pred;
        }
      }
    }
  }
}

TEST(EngineTest, OutputsDirectiveSurvivesPlanning) {
  DCDatalog db(Opts(2, CoordinationMode::kDws));
  Graph g;
  g.AddEdge(0, 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(
      db.LoadProgramText(std::string(".output tc\n") + kTc).ok());
  ASSERT_TRUE(db.Run().ok());
  EXPECT_NE(db.ResultFor("tc"), nullptr);
}

}  // namespace
}  // namespace dcdatalog
