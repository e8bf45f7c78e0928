// Incremental-evaluation edge cases: streaming EDB update batches applied
// to a retained fixpoint, each checked against a from-scratch oracle run
// over the same (post-update) EDB. The broad randomized coverage lives in
// the update-sequence fuzzer (dcd_fuzz --updates); these are the handwritten
// corners: empty batches, self-cancelling batches, deletes of absent rows,
// stamp-ordered deletes (a disconnected component, deletes inside one SCC,
// cyclic self-support, two removed facts in one rule instance, gone rows
// flowing into a downstream recursive SCC, non-recursive SCCs whose facts
// have many derivations, rings whose survivors are reseeded and re-derived,
// a bridge delete that trips the recompute guard, and deletes split into
// one shard per worker with the guard counting over all of them), sessions
// that start from an empty EDB, duplicate inserts under count/sum, and
// inserts through min aggregates (CC with its roll-up, weighted SSSP, a
// non-monotone reader, insert-then-delete).

#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
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
    CoordinationMode::kGlobal, CoordinationMode::kDws};

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
/// the reference evaluator, and checks the stamp invariant of its min/max
/// SCCs and the indexes the update path patches in place
/// (Engine::CheckIndexes), after the initial fixpoint and after every
/// batch. Returns each batch's stats; `initial` gets the initial
/// fixpoint's.
std::vector<EvalStats> ApplyAndDiff(CoordinationMode mode,
                                    const std::string& program,
                                    const std::vector<Relation>& edb,
                                    const std::vector<std::string>& scripts,
                                    DCDatalog* db,
                                    EvalStats* initial = nullptr) {
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
  if (initial != nullptr) *initial = begin.value();
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
      // Size too: a fact stored on two workers is one RowSet entry.
      EXPECT_EQ(db->ResultFor(name)->size(), rel.size()) << name;
      EXPECT_EQ(RowSet(*db->ResultFor(name)), RowSet(rel)) << name;
    }
    const Status stamps = db->CheckStampInvariant();
    EXPECT_TRUE(stamps.ok()) << stamps.ToString();
    const Status indexes = db->CheckIndexes();
    EXPECT_TRUE(indexes.ok()) << indexes.ToString();
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

TEST(IncrementalTest, BackwardForwardDeletesInNonRecursiveSccs) {
  // Non-recursive set SCCs: every node fact has several derivations, and
  // hop joins two arc atoms that one batch can both touch. arc(0, 1) is
  // stored twice, so its delete removes both copies. Batch 2 inserts both
  // arcs of the new hop(5, 7), and batch 4 removes both arcs of
  // hop(1, 4)'s one instance. Every delete-only batch runs Backward/Forward
  // and must not recompute.
  constexpr char kProgram[] =
      "node(X) :- arc(X, _).\n"
      "node(X) :- arc(_, X).\n"
      "hop(X, Y) :- arc(X, Z), arc(Z, Y).\n";
  // The chain 10 -> .. -> 20 keeps each delete below the recompute guard
  // (more deleted than survives).
  std::vector<std::vector<uint64_t>> arcs = {
      {0, 1}, {0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 1}, {2, 4}};
  for (uint64_t v = 10; v < 20; ++v) arcs.push_back({v, v + 1});
  const std::vector<Relation> edb = {Rows("arc", 2, arcs)};
  const std::vector<std::string> scripts = {
      "- arc 1 2\n",  // node(1), node(2) keep other proofs; hop(0, 2) goes.
      "- arc 0 1\n",  // Both copies: node(0) loses its last derivation.
      "+ arc 5 6\n+ arc 6 7\n+ arc 0 1\n",
      "- arc 6 7\n",
      "- arc 1 3\n- arc 3 4\n",
  };
  const std::vector<bool> delete_only = {true, true, false, true, true};
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    const auto stats = ApplyAndDiff(mode, kProgram, edb, scripts, &db);
    ASSERT_EQ(stats.size(), scripts.size());
    for (size_t b = 0; b < scripts.size(); ++b) {
      if (!delete_only[b]) continue;
      EXPECT_EQ(stats[b].update_recomputes, 0u) << "batch " << b;
      EXPECT_GT(stats[b].rederived_tuples, 0u) << "batch " << b;
    }
    const auto hop = RowSet(*db.ResultFor("hop"));
    EXPECT_FALSE(hop.count({1, 4}));
    EXPECT_FALSE(hop.count({5, 7}));
    EXPECT_TRUE(RowSet(*db.ResultFor("node")).count({0}));
  }
}

TEST(IncrementalTest, DeleteScansWhereNoIndexAnswers) {
  // No evaluation rule probes arc or node by index. The first delete finds
  // its arc copies, and node's lost fact, by one counted scan of each
  // relation; it also builds the arc indexes node's check versions probe,
  // and the second delete finds its arc copy through them.
  constexpr char kProgram[] =
      "node(X) :- arc(X, _).\n"
      "node(X) :- arc(_, X).\n";
  std::vector<std::vector<uint64_t>> arcs;
  for (uint64_t v = 0; v < 20; ++v) arcs.push_back({v, v + 1});
  const std::vector<std::string> scripts = {"- arc 19 20\n", "- arc 0 1\n"};
  DCDatalog db(Opts(2));
  const auto stats = ApplyAndDiff(CoordinationMode::kGlobal, kProgram,
                                  {Rows("arc", 2, arcs)}, scripts, &db);
  ASSERT_EQ(stats.size(), scripts.size());
  for (const EvalStats& batch : stats) EXPECT_EQ(batch.update_recomputes, 0u);
  // Netting and removal each scan arc's 20 rows, node's commit its 21.
  EXPECT_EQ(stats[0].update_rows_scanned, 20u + 20u + 21u);
  // Only node, now 20 rows, is scanned.
  EXPECT_EQ(stats[1].update_rows_scanned, 20u);
}

// --- Inserts through min/max aggregates ----------------------------------
// An insert lowers a min in place, and only the changed groups go on to
// readers that are monotone in the value. `merges` tells the paths apart:
// an incremental batch merges what it re-drives, a recompute about as
// much as the initial fixpoint.

constexpr char kCc[] =
    "cc2(Y, min<Y>) :- arc(Y, _).\n"
    "cc2(Y, min<Y>) :- arc(_, Y).\n"
    "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"
    "cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).\n"
    "cc(Y, min<Z>) :- cc2(Y, Z).\n";

/// 12 chains of 8 vertices: component c spans 10c+10 .. 10c+17 and is
/// labelled 10c+10.
Relation Chains() {
  std::vector<std::vector<uint64_t>> edges;
  for (uint64_t c = 0; c < 12; ++c) {
    for (uint64_t i = 0; i < 7; ++i) {
      edges.push_back({10 * c + 10 + i, 10 * c + 11 + i});
    }
  }
  return Rows("arc", 2, edges);
}

TEST(IncrementalTest, MinInsertsChangeOnlyTheGroupsTheyLower) {
  const std::vector<std::string> scripts = {
      "+ arc 15 12\n",                 // Inside component 0: no change.
      "+ arc 3 125\n",                 // 120..127 drop to the new 3.
      "+ arc 500 501\n+ arc 501 502\n",  // A new component.
      "+ arc 25 3\n",                  // 20..27 join 3's component.
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    EvalStats initial;
    const auto stats =
        ApplyAndDiff(mode, kCc, {Chains()}, scripts, &db, &initial);
    ASSERT_EQ(stats.size(), scripts.size());
    for (const EvalStats& batch : stats) {
      EXPECT_LT(batch.merges * 4, initial.merges);
    }
    EXPECT_EQ(stats[0].num_sccs, 1u);  // Nothing reached the roll-up.
    const auto cc = RowSet(*db.ResultFor("cc"));
    for (uint64_t v : {3, 20, 27, 120, 127}) EXPECT_TRUE(cc.count({v, 3}));
    EXPECT_TRUE(cc.count({502, 500}));
    EXPECT_TRUE(cc.count({37, 30}));
  }
}

TEST(IncrementalTest, WeightedShortestPathInsertsStayIncremental) {
  constexpr char kSssp[] =
      "sp(To, min<C>) :- To = 0, C = 0.\n"
      "sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.\n"
      "results(To, min<C>) :- sp(To, C).\n";
  std::vector<std::vector<uint64_t>> edges;
  for (uint64_t v = 0; v < 50; ++v) edges.push_back({v, v + 1, 5});
  const std::vector<std::string> scripts = {
      "+ warc 0 40 3\n",                   // 40..50 get closer.
      "+ warc 50 60 1\n+ warc 60 61 2\n",  // New vertices.
      "+ warc 10 11 100\n",                // A longer parallel edge.
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    EvalStats initial;
    const auto stats = ApplyAndDiff(mode, kSssp, {Rows("warc", 3, edges)},
                                    scripts, &db, &initial);
    ASSERT_EQ(stats.size(), scripts.size());
    for (const EvalStats& batch : stats) {
      EXPECT_LT(batch.merges * 4, initial.merges);
    }
    const auto results = RowSet(*db.ResultFor("results"));
    EXPECT_TRUE(results.count({45, 28}));  // 3 + 5 * 5.
    EXPECT_TRUE(results.count({61, 56}));
  }
}

TEST(IncrementalTest, NonMonotoneAggregateReaderRecomputes) {
  // q copies cc2's value into a plain relation, which cannot drop the row
  // a lowered label supersedes: every insert affecting cc2 recomputes.
  const std::string program =
      std::string(kCc) + "q(X, C) :- cc2(X, C).\n";
  const std::vector<std::string> scripts = {
      "+ arc 3 125\n",
      "+ arc 15 12\n",
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    EvalStats initial;
    const auto stats =
        ApplyAndDiff(mode, program, {Chains()}, scripts, &db, &initial);
    ASSERT_EQ(stats.size(), scripts.size());
    for (const EvalStats& batch : stats) {
      EXPECT_EQ(batch.update_recomputes, 1u);
    }
    const auto q = RowSet(*db.ResultFor("q"));
    EXPECT_TRUE(q.count({125, 3}));
    EXPECT_FALSE(q.count({125, 120}));
  }
}

TEST(IncrementalTest, InsertThenDeleteThroughMinAggregate) {
  // The delete is maintained: the groups the insert lowered lose their
  // lowest-stamped proof, are invalidated and re-derived at their old
  // labels. The next insert is incremental too.
  const std::vector<std::string> scripts = {
      "+ arc 3 125\n",
      "- arc 3 125\n",
      "+ arc 3 125\n+ arc 120 25\n",
  };
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    EvalStats initial;
    const auto stats =
        ApplyAndDiff(mode, kCc, {Chains()}, scripts, &db, &initial);
    ASSERT_EQ(stats.size(), scripts.size());
    for (const EvalStats& batch : stats) {
      EXPECT_EQ(batch.update_recomputes, 0u);
      EXPECT_LT(batch.merges * 4, initial.merges);
      // arc's base indexes find every touched copy, cc2's and cc's catalog
      // layouts place every invalidated group, and no update version reads
      // arc, so nothing is scanned or copied.
      EXPECT_EQ(batch.update_rows_scanned, 0u);
    }
    EXPECT_GT(stats[1].rederived_tuples, 0u);
    const auto cc = RowSet(*db.ResultFor("cc"));
    EXPECT_TRUE(cc.count({25, 3}));
    EXPECT_TRUE(cc.count({125, 3}));
  }
}

// --- Deletes through min/max aggregates -----------------------------------
// Each case runs at 4 workers under every strategy; ApplyAndDiff diffs the
// result against the reference evaluator and checks the stamp invariant
// after every batch.

/// Chains() plus `more` arcs.
Relation ChainsWith(const std::vector<std::vector<uint64_t>>& more) {
  Relation arc = Chains();
  for (const auto& row : more) {
    arc.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
  }
  return arc;
}

/// Runs `scripts` over `edb` under every strategy at 4 workers, calls
/// `check` on each final state, and returns each strategy's per-batch
/// stats.
std::vector<std::vector<EvalStats>> RunEveryMode(
    const std::string& program, const std::vector<Relation>& edb,
    const std::vector<std::string>& scripts,
    const std::function<void(DCDatalog&)>& check) {
  std::vector<std::vector<EvalStats>> out;
  for (CoordinationMode mode : kAllModes) {
    EngineOptions opts = Opts(4);
    opts.coordination = mode;
    DCDatalog db(opts);
    out.push_back(ApplyAndDiff(mode, program, edb, scripts, &db));
    EXPECT_EQ(out.back().size(), scripts.size());
    check(db);
  }
  return out;
}

TEST(IncrementalTest, AggregateDeleteCutBridgeRaisesTheCycle) {
  // Vertex 1 reaches the cycle 50 -> 51 -> 52 -> 53 -> 50 over the bridge
  // 1 -> 50, so every cycle member holds label 1 and has two neighbours
  // holding 1 too. Cutting the bridge must raise all four to 50: a check
  // that took any equal-valued neighbour as proof would let the cycle
  // prove itself. Restoring and cutting again stays maintained.
  const Relation arc = ChainsWith(
      {{1, 2}, {1, 50}, {50, 51}, {51, 52}, {52, 53}, {53, 50}});
  const std::vector<std::string> scripts = {
      "- arc 1 50\n", "+ arc 1 50\n", "- arc 1 50\n"};
  const auto stats = RunEveryMode(kCc, {arc}, scripts, [](DCDatalog& db) {
    const auto cc = RowSet(*db.ResultFor("cc"));
    for (uint64_t v : {50, 51, 52, 53}) EXPECT_TRUE(cc.count({v, 50})) << v;
    EXPECT_TRUE(cc.count({2, 1}));
  });
  for (const auto& mode : stats) {
    for (const EvalStats& batch : mode) EXPECT_EQ(batch.update_recomputes, 0u);
  }
}

TEST(IncrementalTest, AggregateDeleteLastArcLeavesBothPredicates) {
  // 500 -> 501 is the only arc of either vertex, and 16 -> 17 the last arc
  // of 17: their groups keep no instance and leave cc2 and cc.
  const std::vector<std::string> scripts = {"- arc 500 501\n- arc 16 17\n"};
  const auto stats = RunEveryMode(
      kCc, {ChainsWith({{500, 501}})}, scripts, [](DCDatalog& db) {
        for (const char* pred : {"cc2", "cc"}) {
          const Relation& rel = *db.ResultFor(pred);
          for (uint64_t r = 0; r < rel.size(); ++r) {
            EXPECT_NE(rel.Row(r)[0], 500u) << pred;
            EXPECT_NE(rel.Row(r)[0], 501u) << pred;
            EXPECT_NE(rel.Row(r)[0], 17u) << pred;
          }
        }
        EXPECT_TRUE(RowSet(*db.ResultFor("cc")).count({16, 10}));
      });
  for (const auto& mode : stats) {
    EXPECT_EQ(mode[0].update_recomputes, 0u);
    EXPECT_GT(mode[0].rederived_tuples, 0u);
  }
}

TEST(IncrementalTest, AggregateDeleteThroughDeliveryMax) {
  // examples/queries/delivery.dl: part 1 is built from 2 and 3, 2 from 4
  // and 5, 3 from 6; parts 100..139 are independent leaves.
  constexpr char kDelivery[] =
      "delivery(P, max<D>) :- basic(P, D).\n"
      "delivery(P, max<D>) :- assbl(P, S), delivery(S, D).\n"
      "results(P, max<D>)  :- delivery(P, D).\n";
  std::vector<std::vector<uint64_t>> basic = {{4, 5}, {5, 9}, {6, 7}, {3, 2}};
  for (uint64_t p = 100; p < 140; ++p) basic.push_back({p, p % 7});
  const std::vector<Relation> edb = {
      Rows("basic", 2, basic),
      Rows("assbl", 2, {{1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 6}})};
  const std::vector<std::string> scripts = {
      "- basic 5 9\n",               // 5 leaves; 2 falls to 5, 1 to 7.
      "+ basic 5 9\n",               // Back to 9.
      "- assbl 1 2\n",               // 1 falls to 7.
      "- basic 6 7\n+ basic 6 1\n",  // 6 falls to 1, 3 to 2, 1 to 2.
  };
  const auto stats =
      RunEveryMode(kDelivery, edb, scripts, [](DCDatalog& db) {
        const auto results = RowSet(*db.ResultFor("results"));
        EXPECT_TRUE(results.count({1, 2}));
        EXPECT_TRUE(results.count({2, 9}));
        EXPECT_TRUE(results.count({6, 1}));
      });
  for (const auto& mode : stats) {
    for (const EvalStats& batch : mode) EXPECT_EQ(batch.update_recomputes, 0u);
  }
}

TEST(IncrementalTest, AggregateDeleteRestoresWhatAnInsertLowered) {
  // Inserts lower two chains to a new label 3; deletes restore them, one
  // bridge at a time.
  const std::vector<std::string> scripts = {
      "+ arc 3 125\n",
      "- arc 3 125\n",                  // 120..127 back to 120; 3 leaves.
      "+ arc 3 125\n+ arc 120 25\n",    // 20..27 and 120..127 fall to 3.
      "- arc 3 125\n",                  // Both chains rise to 20.
      "- arc 120 25\n",                 // 120..127 rise to 120.
  };
  const auto stats = RunEveryMode(kCc, {Chains()}, scripts, [](DCDatalog& db) {
    const auto cc = RowSet(*db.ResultFor("cc"));
    for (uint64_t v : {120, 127}) EXPECT_TRUE(cc.count({v, 120})) << v;
    for (uint64_t v : {20, 27}) EXPECT_TRUE(cc.count({v, 20})) << v;
  });
  for (const auto& mode : stats) {
    for (const EvalStats& batch : mode) EXPECT_EQ(batch.update_recomputes, 0u);
  }
}

TEST(IncrementalTest, AggregateDeleteGuardRecomputes) {
  // On the chain 0 -> 1 -> ... -> 20 every label came through its left
  // neighbour, so cutting 0 -> 1 invalidates every group: the guard gives
  // up and the batch recomputes. Deleting the last arc of 20 afterwards
  // touches one group and stays maintained.
  std::vector<std::vector<uint64_t>> arcs;
  for (uint64_t v = 0; v < 20; ++v) arcs.push_back({v, v + 1});
  const std::vector<std::string> scripts = {
      "- arc 0 1\n", "+ arc 0 1\n", "- arc 19 20\n"};
  const auto stats = RunEveryMode(
      kCc, {Rows("arc", 2, arcs)}, scripts, [](DCDatalog& db) {
        EXPECT_TRUE(RowSet(*db.ResultFor("cc")).count({19, 0}));
      });
  for (const auto& mode : stats) {
    EXPECT_EQ(mode[0].update_recomputes, 1u);
    EXPECT_EQ(mode[1].update_recomputes, 0u);
    EXPECT_EQ(mode[2].update_recomputes, 0u);
  }
}

TEST(IncrementalTest, AggregateDeleteSsspStillRecomputes) {
  // `C = C1 + C2` is not a copy of sp's value: sp has no check version, so
  // a delete recomputes (an insert stays incremental).
  constexpr char kSssp[] =
      "sp(To, min<C>) :- To = 0, C = 0.\n"
      "sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.\n"
      "results(To, min<C>) :- sp(To, C).\n";
  std::vector<std::vector<uint64_t>> edges;
  for (uint64_t v = 0; v < 30; ++v) edges.push_back({v, v + 1, 5});
  edges.push_back({0, 20, 7});
  const std::vector<std::string> scripts = {"- warc 0 20 7\n",
                                            "+ warc 0 20 7\n"};
  const auto stats = RunEveryMode(
      kSssp, {Rows("warc", 3, edges)}, scripts, [](DCDatalog& db) {
        EXPECT_TRUE(RowSet(*db.ResultFor("results")).count({25, 32}));
      });
  for (const auto& mode : stats) {
    EXPECT_EQ(mode[0].update_recomputes, 1u);
    EXPECT_EQ(mode[1].update_recomputes, 0u);
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
  // but the surviving proof of reach(0 .. kRing/2 - 1) runs through
  // higher-stamped facts: the delete invalidates those ~100K facts, reseeds
  // reach(0) and lets the insert loop re-derive the rest, with no
  // recursion on the C++ call stack.
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
  EXPECT_EQ(stats.value().update_recomputes, 0u);
}

TEST(IncrementalTest, BackwardForwardDeepProofUsesNoRecursion) {
  CheckDeepRingDelete(CoordinationMode::kGlobal);
}

// Under DWS, whose workers park and rely on termination detection, the
// 100K-round initial fixpoint of this ring is also a regression test for
// that detection: a thin frontier passes from worker to worker, so a round
// that counts drained tuples as consumed while the consumer's active flag
// is down ends the SCC early and loses rows (see TerminationDetector).
TEST(IncrementalTest, BackwardForwardDeepProofUnderDws) {
  CheckDeepRingDelete(CoordinationMode::kDws);
}

TEST(IncrementalTest, StampDeleteReseedsARingFromItsOtherEntry) {
  // s = 64 enters a 64-vertex ring at 0 and at 16. Deleting s->0 leaves
  // reach(0 .. 15) only the proof around the ring, through facts stamped
  // above them: they are invalidated, reach(0) is reseeded from reach(63),
  // and the insert loop re-derives the rest. Once re-derived, reach(0)'s
  // stamp is above reach(63)'s, so deleting s->0 again after re-adding it
  // keeps every fact on the first check.
  constexpr uint64_t kN = 64;
  std::vector<std::vector<uint64_t>> arcs = {{kN, 0}, {kN, 16}};
  for (uint64_t i = 0; i < kN; ++i) arcs.push_back({i, (i + 1) % kN});
  const std::vector<Relation> edb = {Rows("arc", 2, arcs),
                                     Rows("start", 1, {{kN}})};
  constexpr char kReach[] =
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), arc(X, Y).\n";
  const std::vector<std::string> scripts = {"- arc 64 0\n", "+ arc 64 0\n",
                                            "- arc 64 0\n"};
  for (uint32_t workers : {1u, 2u, 4u}) {
    for (CoordinationMode mode : kAllModes) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      EngineOptions opts = Opts(workers);
      opts.coordination = mode;
      DCDatalog db(opts);
      const auto stats = ApplyAndDiff(mode, kReach, edb, scripts, &db);
      ASSERT_EQ(stats.size(), scripts.size());
      for (size_t b : {0u, 2u}) {
        EXPECT_EQ(stats[b].update_recomputes, 0u) << "batch " << b;
        EXPECT_GT(stats[b].rederived_tuples, 0u) << "batch " << b;
      }
      // The first delete invalidates reach(0 .. 15) and re-derives them
      // through the insert loop; the second checks reach(0) alone.
      EXPECT_GE(stats[0].rederived_tuples, 16u);
      EXPECT_GT(stats[0].accepts, 0u);
      EXPECT_EQ(stats[2].rederived_tuples, 1u);
      EXPECT_EQ(stats[2].accepts, 0u);
      EXPECT_EQ(db.ResultFor("reach")->size(), kN + 1);
    }
  }
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
    EXPECT_EQ(stats[0].update_recomputes, 1u);
    EXPECT_EQ(stats[2].update_recomputes, 0u);
    EXPECT_EQ(db.ResultFor("tc")->size(), 306u - 12u);
  }
}

// --- Sharded Backward/Forward deletes -------------------------------------
// An SCC with a proof-invariant column runs one Backward/Forward shard per
// worker, keyed on that column. Each case runs under every strategy at 1,
// 2 and 4 workers and is diffed against the reference evaluator after
// every batch.

/// Four 10-vertex rings 100c .. 100c+9, each with a shortcut 100c+2 ->
/// 100c+5: every ring is one SCC of the whole graph.
Relation ShortcutRings() {
  std::vector<std::vector<uint64_t>> arcs;
  for (uint64_t c = 1; c <= 4; ++c) {
    for (uint64_t i = 0; i < 10; ++i) {
      arcs.push_back({100 * c + i, 100 * c + (i + 1) % 10});
    }
    arcs.push_back({100 * c + 2, 100 * c + 5});
  }
  return Rows("arc", 2, arcs);
}

/// One update script: `sign` applied to arc(100c + from, 100c + to) of
/// every ring c.
std::string EveryRing(char sign, uint64_t from, uint64_t to) {
  std::string script;
  for (uint64_t c = 1; c <= 4; ++c) {
    script += std::string(1, sign) + " arc " + std::to_string(100 * c + from) +
              " " + std::to_string(100 * c + to) + "\n";
  }
  return script;
}

TEST(IncrementalTest, ShardedDeletesMatchTheOracle) {
  struct Case {
    const char* program;
    const char* pred;
    uint32_t shard_col;
  };
  const Case cases[] = {
      {kTc, "tc", 0},
      {"tc(X, Y) :- arc(X, Y).\n"
       "tc(X, Y) :- arc(X, Z), tc(Z, Y).\n",
       "tc", 1},
      {"odd(X, Y) :- arc(X, Y).\n"
       "even(X, Y) :- odd(X, Z), arc(Z, Y).\n"
       "odd(X, Y) :- even(X, Z), arc(Z, Y).\n",
       "odd", 0},
  };
  const std::vector<Relation> edb = {ShortcutRings()};
  // Batch 0 cuts 3 -> 4 in every ring: 3 reaches nothing and nothing
  // reaches 4. Batch 2 cuts every shortcut, which each ring's 3 -> 4
  // proves again. Batch 3 mixes an insert with a delete.
  const std::vector<std::string> scripts = {
      EveryRing('-', 3, 4),
      EveryRing('+', 3, 4),
      EveryRing('-', 2, 5),
      EveryRing('+', 2, 5) + EveryRing('-', 7, 8),
  };
  const std::vector<bool> delete_only = {true, false, true, false};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.program);
    // The first delete removes facts from every shard at 4 workers.
    StringDict dict;
    auto program = ParseProgram(c.program, &dict);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Catalog before;
    before.Put(ShortcutRings());
    Catalog after;
    const Relation rings = ShortcutRings();
    Relation cut(rings.name(), rings.schema());
    for (uint64_t r = 0; r < rings.size(); ++r) {
      if (rings.Row(r)[0] % 100 != 3) cut.Append(rings.Row(r));
    }
    after.Put(std::move(cut));
    auto old_facts = ReferenceEvaluate(program.value(), before);
    auto new_facts = ReferenceEvaluate(program.value(), after);
    ASSERT_TRUE(old_facts.ok() && new_facts.ok());
    const auto survivors = RowSet(new_facts.value().at(c.pred));
    std::set<uint32_t> shards;
    for (const auto& row : RowSet(old_facts.value().at(c.pred))) {
      if (survivors.count(row) == 0) {
        shards.insert(PartitionOf(row[c.shard_col], 4));
      }
    }
    EXPECT_EQ(shards.size(), 4u);

    for (uint32_t workers : {1u, 2u, 4u}) {
      for (CoordinationMode mode : kAllModes) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        EngineOptions opts = Opts(workers);
        opts.coordination = mode;
        DCDatalog db(opts);
        const auto stats = ApplyAndDiff(mode, c.program, edb, scripts, &db);
        ASSERT_EQ(stats.size(), scripts.size());
        for (size_t b = 0; b < scripts.size(); ++b) {
          if (!delete_only[b]) continue;
          EXPECT_EQ(stats[b].update_recomputes, 0u) << "batch " << b;
          EXPECT_GT(stats[b].rederived_tuples, 0u) << "batch " << b;
        }
      }
    }
  }
}

TEST(IncrementalTest, ShardedGuardCountsDeletesOfEveryShard) {
  // Eight groups g: four sources feed hub g, whose bridge g -> 1000g leads
  // into a 5-vertex chain. Cutting every bridge deletes 200 of 312 tc
  // facts, spread over the shards of their sources and hubs. No shard
  // alone deletes more than half of I, but together they do, so the guard
  // trips and the batch recomputes. Cutting one bridge (25 facts) stays in
  // place.
  std::vector<std::vector<uint64_t>> arcs;
  std::string cut_all;
  for (uint64_t g = 1; g <= 8; ++g) {
    arcs.push_back({g, 1000 * g});
    for (uint64_t v = 1000 * g; v < 1000 * g + 4; ++v) {
      arcs.push_back({v, v + 1});
    }
    for (uint64_t k = 0; k < 4; ++k) arcs.push_back({10000 * g + k, g});
    cut_all += "- arc " + std::to_string(g) + " " + std::to_string(1000 * g) +
               "\n";
  }
  const std::vector<Relation> edb = {Rows("arc", 2, arcs)};
  const std::vector<std::string> scripts = {
      cut_all,
      "+ arc 3 3000\n",
      "- arc 3 3000\n",
  };
  for (uint32_t workers : {1u, 2u, 4u}) {
    for (CoordinationMode mode : kAllModes) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      EngineOptions opts = Opts(workers);
      opts.coordination = mode;
      DCDatalog db(opts);
      const auto stats = ApplyAndDiff(mode, kTc, edb, scripts, &db);
      ASSERT_EQ(stats.size(), scripts.size());
      EXPECT_EQ(stats[0].update_recomputes, 1u);
      EXPECT_EQ(stats[2].update_recomputes, 0u);
      EXPECT_EQ(db.ResultFor("tc")->size(), 312u - 200u);
    }
  }
}

TEST(IncrementalTest, LocalRuleInsertsAndDeletesMatchTheOracle) {
  // Per-source reachability: step(X, Z, Y) is an edge Z -> Y only source X
  // may take. The delta rule's join key X is the head's partition column,
  // so the incremental plan marks it local: its derivations merge batch by
  // batch on the worker that made them, under the same stamp rule the
  // deletes check.
  constexpr char kProgram[] =
      "p(X, Y) :- arc(X, Y).\n"
      "p(X, Y) :- p(X, Z), step(X, Z, Y).\n";
  // Sources 1..6, each entering its own 8-vertex ring 10s .. 10s+7 at 10s,
  // with a chord 10s+2 -> 10s+5.
  std::vector<std::vector<uint64_t>> arcs;
  std::vector<std::vector<uint64_t>> steps;
  for (uint64_t s = 1; s <= 6; ++s) {
    arcs.push_back({s, 10 * s});
    for (uint64_t i = 0; i < 8; ++i) {
      steps.push_back({s, 10 * s + i, 10 * s + (i + 1) % 8});
    }
    steps.push_back({s, 10 * s + 2, 10 * s + 5});
  }
  const std::vector<Relation> edb = {Rows("arc", 2, arcs),
                                     Rows("step", 3, steps)};
  const auto every_source = [](char sign, uint64_t from, uint64_t to) {
    std::string script;
    for (uint64_t s = 1; s <= 6; ++s) {
      script += std::string(1, sign) + " step " + std::to_string(s) + " " +
                std::to_string(10 * s + from) + " " +
                std::to_string(10 * s + to) + "\n";
    }
    return script;
  };
  // Batch 0 cuts each ring at 3 -> 4, which the chord bridges; batch 1
  // cuts the chord too, so 6 and 7 become unreachable while 4 and 5 still
  // reach them along the ring. Batch 2 restores the chord, batch 3 drops
  // one source's entry arc and adds a step.
  const std::vector<std::string> scripts = {
      every_source('-', 3, 4),
      every_source('-', 2, 5),
      every_source('+', 2, 5),
      "- arc 2 20\n" + every_source('+', 6, 1),
  };
  for (uint32_t workers : {1u, 2u, 4u}) {
    for (CoordinationMode mode : kAllModes) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      EngineOptions opts = Opts(workers);
      opts.coordination = mode;
      DCDatalog db(opts);
      const auto stats = ApplyAndDiff(mode, kProgram, edb, scripts, &db);
      ASSERT_EQ(stats.size(), scripts.size());
      for (size_t b : {0u, 1u}) {
        EXPECT_EQ(stats[b].update_recomputes, 0u) << "batch " << b;
        EXPECT_GT(stats[b].rederived_tuples, 0u) << "batch " << b;
      }
      EXPECT_EQ(stats[3].update_recomputes, 0u);
    }
  }
}

TEST(IncrementalTest, ConstantReplicaUpdatesMatchTheOracle) {
  // low has no group column, so its replica keeps its one row on worker 0;
  // seen(X) :- low(X) must route by X, in the incremental plan too. This
  // mixed SCC's batches take the full recompute: inserts lower the
  // minimum, deletes raise it again and drop the seen fact the old
  // minimum derived. Every arc target but the one each insert lowers the
  // minimum to is an arc source, so no passing value of low leaves a seen
  // fact behind.
  constexpr char kProgram[] =
      "low(min<Y>) :- seen(X), arc(X, Y).\n"
      "seen(X) :- low(X).\n"
      "seen(X) :- arc(X, _).\n";
  const std::vector<Relation> edb = {Rows(
      "arc", 2, {{10, 11}, {11, 12}, {12, 13}, {13, 10}, {13, 7}, {7, 12}})};
  const std::vector<std::string> scripts = {
      "+ arc 12 3\n",
      "- arc 12 3\n",
      "+ arc 11 5\n+ arc 5 10\n+ arc 13 4\n",
      "- arc 13 4\n- arc 13 7\n",
  };
  for (uint32_t workers : {1u, 2u, 4u}) {
    for (CoordinationMode mode : kAllModes) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      EngineOptions opts = Opts(workers);
      opts.coordination = mode;
      DCDatalog db(opts);
      const auto stats = ApplyAndDiff(mode, kProgram, edb, scripts, &db);
      EXPECT_EQ(stats.size(), scripts.size());
    }
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

TEST(IncrementalTest, MixedBatchesMatchOracleAfterEveryBatch) {
  // One mixed insert+delete sequence on the default engine, oracle-checked
  // after every batch.
  const std::vector<std::string> scripts = {
      "+ arc 3 17\n+ arc 17 18\n",
      "- arc 3 17\n+ arc 18 3\n",
      "- arc 0 1\n- arc 18 3\n",
  };
  DCDatalog db(Opts(3));
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
