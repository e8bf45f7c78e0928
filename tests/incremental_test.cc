// Incremental-evaluation edge cases: streaming EDB update batches applied
// to a retained fixpoint, each checked against a from-scratch oracle run
// over the same (post-update) EDB. The broad randomized coverage lives in
// the update-sequence fuzzer (dcd_fuzz --updates); these are the handwritten
// corners: empty batches, self-cancelling batches, deletes of absent rows,
// Backward/Forward deletes (a disconnected component, deletes inside one
// SCC, cyclic self-support, two removed facts in one rule instance, gone
// rows flowing into a downstream recursive SCC, a ~100K-deep proof search,
// and a bridge delete that trips the recompute guard), sessions that start
// from an empty EDB, and duplicate inserts under count/sum.

#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "concurrent/worker_pool.h"
#include "core/dcdatalog.h"
#include "core/reference.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "storage/updates.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::ApproxEqualLastDouble;
using testing_util::RowSet;

constexpr char kTc[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";

EngineOptions Opts(uint32_t workers = 2) {
  EngineOptions o;
  o.num_workers = workers;
  return o;
}

/// Parses a one-batch update script ("+ rel v..." / "- rel v..." lines).
UpdateBatch Batch(const std::string& text) {
  auto script = ParseUpdateScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script.value().batches.size(), 1u);
  return script.value().batches[0];
}

/// Re-runs `program` from scratch over `db`'s current EDB relations and
/// checks every output predicate matches the incrementally maintained one.
void ExpectMatchesOracle(DCDatalog& db, const std::string& program,
                         const std::vector<std::string>& edb,
                         const std::vector<std::string>& outputs,
                         bool last_col_double = false) {
  DCDatalog oracle(db.options());
  for (const std::string& name : edb) {
    Relation copy = *db.ResultFor(name);
    oracle.catalog().Put(std::move(copy));
  }
  ASSERT_TRUE(oracle.LoadProgramText(program).ok());
  auto run = oracle.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (const std::string& out : outputs) {
    ASSERT_NE(db.ResultFor(out), nullptr) << out;
    ASSERT_NE(oracle.ResultFor(out), nullptr) << out;
    if (last_col_double) {
      EXPECT_TRUE(ApproxEqualLastDouble(*db.ResultFor(out),
                                        *oracle.ResultFor(out), 1e-9))
          << out;
    } else {
      EXPECT_EQ(RowSet(*db.ResultFor(out)), RowSet(*oracle.ResultFor(out)))
          << out;
    }
  }
}

TEST(IncrementalTest, EmptyBatchIsANoOp) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 10; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  const auto before = RowSet(*db.ResultFor("tc"));

  auto stats = db.ApplyUpdates(UpdateBatch{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().update_batches, 1u);
  EXPECT_EQ(stats.value().delta_tuples_in, 0u);
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), before);
}

TEST(IncrementalTest, InsertThenDeleteSameEdgeInOneBatchCancels) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 8; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  const auto before = RowSet(*db.ResultFor("tc"));

  // The inserted edge is netted out by its own delete before any rule runs.
  auto stats = db.ApplyUpdates(Batch("+ arc 100 200\n- arc 100 200\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 0u);
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), before);
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
}

TEST(IncrementalTest, DeleteOfNeverInsertedEdgeIsANoOp) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 8; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  const auto before = RowSet(*db.ResultFor("tc"));

  auto stats = db.ApplyUpdates(Batch("- arc 999 1000\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 0u);
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), before);
}

TEST(IncrementalTest, DeleteDisconnectsComponentKeepsOtherProofs) {
  // Two chains joined by a bridge; alternative path 4->14 keeps some
  // cross-component reachability alive, so Backward/Forward must find the
  // other proofs of those facts and delete only the rest.
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 5; ++i) g.AddEdge(i, i + 1);       // 0..5
  for (uint64_t i = 10; i < 15; ++i) g.AddEdge(i, i + 1);     // 10..15
  g.AddEdge(5, 10);                                           // bridge
  g.AddEdge(4, 14);                                           // alt path
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());

  auto stats = db.ApplyUpdates(Batch("- arc 5 10\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // 4->15 survives via the alternative edge; 0->10 must be gone.
  const auto tc = RowSet(*db.ResultFor("tc"));
  EXPECT_TRUE(tc.count({4, 15}));
  EXPECT_FALSE(tc.count({0, 10}));
  EXPECT_GT(stats.value().rederived_tuples, 0u);
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
}

TEST(IncrementalTest, DeletesInsideOneSccReproveTheSurvivors) {
  // TC over a dense ring with chords is one SCC, so every tc tuple has a
  // derivation through any edge (over-delete and re-derive would redo the
  // whole SCC). Backward/Forward instead checks the facts that lost a
  // derivation for another proof. The first delete keeps the graph
  // strongly connected; the second cuts every in-edge of vertex 0 and
  // splits it. The downstream non-recursive `self` consumes the deleted tc
  // rows. Each batch is diffed against the single-threaded reference
  // evaluator.
  constexpr char kProgram[] =
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "self(X) :- tc(X, X).\n";
  constexpr uint64_t kN = 24;
  const std::vector<std::string> scripts = {
      "- arc 5 6\n- arc 11 14\n",                   // Stays one SCC.
      "- arc 23 0\n- arc 21 0\n",                   // Nothing reaches 0.
      "+ arc 23 0\n",                                // Rejoins.
      "- arc 0 1\n- arc 0 3\n- arc 7 8\n",          // 0 reaches nothing.
  };
  // The last configuration runs on a resident pool, whose gang also
  // installs the rebuilt partitions.
  WorkerPool pool(4);
  const std::vector<std::pair<CoordinationMode, WorkerPool*>> configs = {
      {CoordinationMode::kGlobal, nullptr},
      {CoordinationMode::kSsp, nullptr},
      {CoordinationMode::kDws, nullptr},
      {CoordinationMode::kDws, &pool},
  };
  for (const auto& [mode, worker_pool] : configs) {
    SCOPED_TRACE(std::string(CoordinationModeName(mode)) +
                 (worker_pool != nullptr ? " pooled" : ""));
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    opts.worker_pool = worker_pool;
    DCDatalog db(opts);
    Graph g;
    for (uint64_t i = 0; i < kN; ++i) {
      g.AddEdge(i, (i + 1) % kN);
      g.AddEdge(i, (i + 3) % kN);
    }
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kProgram).ok());
    ASSERT_TRUE(db.BeginIncremental().ok());
    ASSERT_EQ(db.ResultFor("tc")->size(), kN * kN);
    auto program = ParseProgram(kProgram, &db.dict());
    ASSERT_TRUE(program.ok()) << program.status().ToString();

    for (size_t b = 0; b < scripts.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      const uint64_t tc_before = db.ResultFor("tc")->size();
      auto stats = db.ApplyUpdates(Batch(scripts[b]));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      if (b == 0) {
        // Every fact survives; some, not all, had to be re-proved.
        EXPECT_GT(stats.value().rederived_tuples, 0u);
        EXPECT_LT(stats.value().rederived_tuples, tc_before);
        EXPECT_EQ(db.ResultFor("tc")->size(), kN * kN);
      }
      if (b == 1) {
        EXPECT_EQ(db.ResultFor("self")->size(), kN - 1);
      }

      Catalog edb;
      Relation arc = *db.ResultFor("arc");
      edb.Put(std::move(arc));
      auto oracle = ReferenceEvaluate(program.value(), edb);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (const char* out : {"tc", "self"}) {
        EXPECT_EQ(RowSet(*db.ResultFor(out)), RowSet(oracle.value().at(out)))
            << out;
      }
    }
  }
}

// --- Backward/Forward deletes --------------------------------------------
// Each case runs at 4 workers under every coordination strategy, and the
// maintained result is diffed against the reference evaluator after every
// batch.

constexpr CoordinationMode kAllModes[] = {
    CoordinationMode::kGlobal, CoordinationMode::kSsp, CoordinationMode::kDws};

Relation Rows(const std::string& name, uint32_t arity,
              const std::vector<std::vector<uint64_t>>& rows) {
  Relation rel(name, Schema::Ints(arity));
  for (const auto& row : rows) {
    rel.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
  }
  return rel;
}

/// Begins an incremental session of `program` over `edb` under `mode`,
/// applies each script in turn and diffs every derived relation against
/// the reference evaluator after the initial fixpoint and after every
/// batch. Returns each batch's stats.
std::vector<EvalStats> ApplyAndDiff(CoordinationMode mode,
                                    const std::string& program,
                                    const std::vector<Relation>& edb,
                                    const std::vector<std::string>& scripts,
                                    DCDatalog* db) {
  std::vector<EvalStats> out;
  for (const Relation& rel : edb) {
    Relation copy = rel;
    db->catalog().Put(std::move(copy));
  }
  EXPECT_TRUE(db->LoadProgramText(program).ok());
  auto begin = db->BeginIncremental();
  EXPECT_TRUE(begin.ok()) << begin.status().ToString();
  auto parsed = ParseProgram(program, &db->dict());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!begin.ok() || !parsed.ok()) return out;
  for (size_t b = 0; b <= scripts.size(); ++b) {
    SCOPED_TRACE(std::string(CoordinationModeName(mode)) + " after batch " +
                 std::to_string(b));
    if (b > 0) {
      auto stats = db->ApplyUpdates(Batch(scripts[b - 1]));
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return out;
      out.push_back(std::move(stats).value());
    }
    Catalog current;
    for (const Relation& rel : edb) {
      Relation copy = *db->ResultFor(rel.name());
      current.Put(std::move(copy));
    }
    auto oracle = ReferenceEvaluate(parsed.value(), current);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    if (!oracle.ok()) return out;
    for (const auto& [name, rel] : oracle.value()) {
      EXPECT_EQ(RowSet(*db->ResultFor(name)), RowSet(rel)) << name;
    }
  }
  return out;
}

TEST(IncrementalTest, BackwardForwardDeletesCyclicSelfSupport) {
  // 0->1, 1->2, 2->1. After deleting 0->1, tc(0,1) and tc(0,2) only
  // support each other through the 1<->2 cycle; Check must not let that
  // cycle prove them.
  const std::vector<Relation> edb = {
      Rows("arc", 2, {{0, 1}, {1, 2}, {2, 1}})};
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    const auto stats = ApplyAndDiff(mode, kTc, edb, {"- arc 0 1\n"}, &db);
    ASSERT_EQ(stats.size(), 1u);
    const auto tc = RowSet(*db.ResultFor("tc"));
    EXPECT_FALSE(tc.count({0, 1}));
    EXPECT_FALSE(tc.count({0, 2}));
    EXPECT_EQ(tc.size(), 4u);  // {1,2} x {1,2}.
    EXPECT_GT(stats[0].rederived_tuples, 0u);
  }
}

TEST(IncrementalTest, BackwardForwardSeesBothRemovedFactsOfOneInstance) {
  // Same generation: both rules join two arcs. Removing both arcs of one
  // instance in one batch hides the instance from each arc's forward drive
  // unless the other arc is read as it was before the batch. Batch 0 does
  // it to the recursive rule (sg(3,4) via arc(1,3), sg(1,2), arc(2,4)),
  // batch 2 to the base rule (sg(1,2) via arc(0,1), arc(0,2)), whose loss
  // cascades into sg(3,4).
  constexpr char kSg[] =
      "sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.\n"
      "sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).\n";
  const std::vector<Relation> edb = {
      Rows("arc", 2, {{0, 1}, {0, 2}, {1, 3}, {2, 4}})};
  const std::vector<std::string> scripts = {
      "- arc 1 3\n- arc 2 4\n",
      "+ arc 1 3\n+ arc 2 4\n",
      "- arc 0 1\n- arc 0 2\n",
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    const auto stats = ApplyAndDiff(mode, kSg, edb, scripts, &db);
    ASSERT_EQ(stats.size(), scripts.size());
    EXPECT_EQ(db.ResultFor("sg")->size(), 0u);
  }
}

TEST(IncrementalTest, BackwardForwardGoneRowsFeedADownstreamRecursiveScc) {
  // The tc rows a delete removes are the removed input of the recursive
  // `r`, which follows `link` edges from what 0 reaches, including a
  // 10<->11 cycle that must not keep itself alive.
  constexpr char kProgram[] =
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "r(Y) :- tc(0, Y).\n"
      "r(Y) :- r(X), link(X, Y).\n";
  const std::vector<Relation> edb = {
      Rows("arc", 2, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}}),
      Rows("link", 2, {{3, 10}, {10, 11}, {11, 10}, {5, 12}, {2, 13}})};
  const std::vector<std::string> scripts = {
      "- arc 1 2\n",               // r loses 2, 3, 4, 10, 11, 13.
      "+ arc 1 2\n- arc 0 5\n",   // They return; 5 and 12 go.
      "- link 10 11\n- arc 3 4\n",
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    const auto stats = ApplyAndDiff(mode, kProgram, edb, scripts, &db);
    ASSERT_EQ(stats.size(), scripts.size());
    if (stats.empty()) continue;
    // After batch 2 only 0's arcs and links past 3 remain reachable.
    EXPECT_EQ(RowSet(*db.ResultFor("r")),
              (std::set<std::vector<uint64_t>>{{1}, {2}, {3}, {10}, {13}}));
  }
}

/// A 200K-vertex ring entered from s = kRing at 0 and at kRing / 2.
constexpr uint64_t kRing = 200000;

/// Runs `fn` on a thread with a 2 MiB stack: a recursion ~100K levels
/// deep needs more than that at any frame size, so it would overflow.
void RunOnSmallStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 2 << 20), 0);
  pthread_t thread;
  const auto trampoline = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

void CheckDeepRingDelete(CoordinationMode mode) {
  // Deleting s->0 leaves every reach fact proved through the other entry,
  // but the backward search from reach(0) walks at least 100K facts deep
  // around the ring before it gets there — on an explicit stack, not the
  // C++ call stack.
  // The reference evaluator is far too slow for a 100K-round fixpoint; the
  // expected result is known: s and every ring vertex.
  EngineOptions opts = Opts(4);
  opts.coordination = mode;
  DCDatalog db(opts);
  std::vector<std::vector<uint64_t>> arcs = {{kRing, 0}, {kRing, kRing / 2}};
  for (uint64_t i = 0; i < kRing; ++i) arcs.push_back({i, (i + 1) % kRing});
  db.catalog().Put(Rows("arc", 2, arcs));
  db.catalog().Put(Rows("start", 1, {{kRing}}));
  ASSERT_TRUE(db.LoadProgramText("reach(X) :- start(X).\n"
                                 "reach(Y) :- reach(X), arc(X, Y).\n")
                  .ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  ASSERT_EQ(db.ResultFor("reach")->size(), kRing + 1) << "initial fixpoint";
  const UpdateBatch batch = Batch("- arc " + std::to_string(kRing) + " 0\n");
  Result<EvalStats> stats = Status::Internal("delete did not run");
  RunOnSmallStack([&] { stats = db.ApplyUpdates(batch); });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(db.ResultFor("reach")->size(), kRing + 1);
  EXPECT_GE(stats.value().rederived_tuples, kRing / 2);
  EXPECT_EQ(stats.value().num_sccs, 0u);  // Maintained, not recomputed.
}

TEST(IncrementalTest, BackwardForwardDeepProofUsesNoRecursion) {
  CheckDeepRingDelete(CoordinationMode::kGlobal);
}

// Under SSP and DWS the 100K-round initial fixpoint of this ring is also
// a regression test for termination detection: a thin frontier passes
// from worker to worker, so a round that counts drained tuples as
// consumed while the consumer's active flag is down ends the SCC early
// and loses rows (see TerminationDetector).
TEST(IncrementalTest, BackwardForwardDeepProofUnderSsp) {
  CheckDeepRingDelete(CoordinationMode::kSsp);
}
TEST(IncrementalTest, BackwardForwardDeepProofUnderDws) {
  CheckDeepRingDelete(CoordinationMode::kDws);
}

TEST(IncrementalTest, BackwardForwardGuardRecomputesBridgeDelete) {
  // Twenty sources feed u = 50, whose bridge 50->60 leads into a chain of
  // eleven vertices. Deleting the bridge deletes 231 of 306 tc facts:
  // once more is deleted than survives, Backward/Forward gives up and the
  // batch recomputes (a delete-only batch runs SCCs only then). The
  // session must stay usable for the next batches.
  std::vector<std::vector<uint64_t>> arcs = {{50, 60}};
  for (uint64_t s = 100; s < 120; ++s) arcs.push_back({s, 50});
  for (uint64_t v = 60; v < 70; ++v) arcs.push_back({v, v + 1});
  const std::vector<Relation> edb = {Rows("arc", 2, arcs)};
  const std::vector<std::string> scripts = {
      "- arc 50 60\n",   // Trips the guard.
      "+ arc 50 60\n",   // Incremental insert after the recompute.
      "- arc 100 50\n",  // 12 of 306 facts: maintained in place.
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    const auto stats = ApplyAndDiff(mode, kTc, edb, scripts, &db);
    ASSERT_EQ(stats.size(), scripts.size());
    EXPECT_GT(stats[0].num_sccs, 0u);
    EXPECT_EQ(stats[2].num_sccs, 0u);
    EXPECT_EQ(db.ResultFor("tc")->size(), 306u - 12u);
  }
}

TEST(IncrementalTest, UpdatesOnEmptyInitialEdb) {
  DCDatalog db(Opts());
  ASSERT_TRUE(db.CreateRelation("arc", Schema::Ints(2)).ok());
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto begin = db.BeginIncremental();
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  EXPECT_EQ(db.ResultFor("tc")->size(), 0u);

  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 0 1\n+ arc 1 2\n")).ok());
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
  EXPECT_EQ(RowSet(*db.ResultFor("tc")),
            (std::set<std::vector<uint64_t>>{{0, 1}, {1, 2}, {0, 2}}));

  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 2 0\n")).ok());  // close the cycle
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
  EXPECT_EQ(db.ResultFor("tc")->size(), 9u);
}

TEST(IncrementalTest, DuplicateInsertsUnderCountAndSum) {
  // Set semantics: re-inserting a present tuple must not disturb count/sum
  // aggregates downstream.
  constexpr char kAgg[] =
      "deg(X, count<Y>) :- arc(X, Y).\n"
      "wsum(X, sum<(Y, K)>) :- arc(X, Y), K = 1.5.\n";
  DCDatalog db(Opts());
  Graph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kAgg).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());

  // Duplicate of (0,1) nets to nothing; (2,3) is genuinely new.
  auto stats = db.ApplyUpdates(Batch("+ arc 0 1\n+ arc 2 3\n+ arc 0 1\n"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().delta_tuples_in, 1u);
  ExpectMatchesOracle(db, kAgg, {"arc"}, {"deg"});
  ExpectMatchesOracle(db, kAgg, {"arc"}, {"wsum"}, /*last_col_double=*/true);

  // And the duplicate alone: fixpoint must be bit-identical to before.
  const auto deg_before = RowSet(*db.ResultFor("deg"));
  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 1 2\n")).ok());
  EXPECT_EQ(RowSet(*db.ResultFor("deg")), deg_before);
}

TEST(IncrementalTest, MixedBatchesAcrossBackendsAndExecutors) {
  // One mixed insert+delete sequence driven through every merge-index
  // backend x pipeline-executor combination, oracle-checked per batch.
  const std::vector<std::string> scripts = {
      "+ arc 3 17\n+ arc 17 18\n",
      "- arc 3 17\n+ arc 18 3\n",
      "- arc 0 1\n- arc 18 3\n",
  };
  for (MergeIndexBackend backend :
       {MergeIndexBackend::kFlat, MergeIndexBackend::kBtree}) {
    for (PipelineExecutor exec :
         {PipelineExecutor::kBatch, PipelineExecutor::kTuple}) {
      EngineOptions opts = Opts(3);
      opts.merge_index_backend = backend;
      opts.pipeline_executor = exec;
      DCDatalog db(opts);
      Graph g = GenerateGnp(24, 0.08, 5);
      g.AddEdge(0, 1);
      db.AddGraph(g, "arc");
      ASSERT_TRUE(db.LoadProgramText(kTc).ok());
      ASSERT_TRUE(db.BeginIncremental().ok());
      for (const std::string& script : scripts) {
        auto stats = db.ApplyUpdates(Batch(script));
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
      }
    }
  }
}

TEST(IncrementalTest, ApplyUpdatesRequiresBeginIncremental) {
  DCDatalog db(Opts());
  Graph g;
  g.AddEdge(0, 1);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  EXPECT_FALSE(db.ApplyUpdates(Batch("+ arc 1 2\n")).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  EXPECT_TRUE(db.incremental_active());
  // Updating a derived relation is rejected.
  EXPECT_FALSE(db.ApplyUpdates(Batch("+ tc 1 2\n")).ok());
  // Loading a new program drops the session.
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  EXPECT_FALSE(db.incremental_active());
}

TEST(IncrementalTest, RunAfterBeginIncrementalTearsDownSession) {
  // Engine-level contract: Run()/RunPlan() on an engine with a live
  // incremental session must tear the session down deterministically — the
  // run replaces the catalog relations the retained replicas and
  // watermarks describe, so resuming the old session would read stale
  // state. The bug this pins: inc_ surviving Run() and a later
  // ApplyUpdates re-driving from watermarks that no longer match the
  // catalog.
  Catalog catalog;
  StringDict dict;
  Graph g;
  for (uint64_t i = 0; i < 8; ++i) g.AddEdge(i, i + 1);
  catalog.Put(g.ToArcRelation("arc"));
  auto program = ParseProgram(kTc, &dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Engine engine(&catalog, Opts().Resolved());
  ASSERT_TRUE(engine.BeginIncremental(program.value()).ok());
  ASSERT_TRUE(engine.incremental_active());
  const auto before = RowSet(*catalog.Find("tc"));

  // A from-scratch Run over the same program: results identical, session
  // gone.
  auto rerun = engine.Run(program.value());
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(engine.incremental_active());
  EXPECT_EQ(RowSet(*catalog.Find("tc")), before);

  // Updates after the invalidation are rejected, not silently misapplied.
  UpdateBatch batch = Batch("+ arc 8 9\n");
  auto resolved = ResolveUpdateBatch(batch, catalog, &dict);
  ASSERT_TRUE(resolved.ok());
  EXPECT_FALSE(engine.ApplyUpdates(resolved.value()).ok());

  // The engine is not wedged: a fresh session over the post-run catalog
  // works and maintains correctly.
  ASSERT_TRUE(engine.BeginIncremental(program.value()).ok());
  auto inc = engine.ApplyUpdates(resolved.value());
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_TRUE(RowSet(*catalog.Find("tc")).count({0, 9}) > 0);
}

TEST(IncrementalTest, ReRunAfterUpdatesMatchesOracle) {
  // DCDatalog-level: BeginIncremental → ApplyUpdates → Run() from scratch.
  // The re-run must see the post-update EDB and agree with an independent
  // oracle, and the dropped session must not leak into the re-run's
  // results.
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 12; ++i) g.AddEdge(i, (i * 5 + 1) % 12);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  ASSERT_TRUE(db.BeginIncremental().ok());
  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 3 7\n- arc 0 1\n")).ok());

  auto rerun = db.Run();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(db.incremental_active());
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});

  // And the instance can open another session afterwards.
  ASSERT_TRUE(db.BeginIncremental().ok());
  ASSERT_TRUE(db.ApplyUpdates(Batch("+ arc 7 0\n")).ok());
  ExpectMatchesOracle(db, kTc, {"arc"}, {"tc"});
}

}  // namespace
}  // namespace dcdatalog
