// Degenerate-input tests through the full parallel engine: empty EDBs,
// self-loop-only graphs, single-worker DWS, and aggregate groups fed by
// duplicate derivations. Each case is diffed against the reference
// interpreter across every coordination mode.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/dcdatalog.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

constexpr CoordinationMode kAllModes[] = {
    CoordinationMode::kGlobal, CoordinationMode::kSsp, CoordinationMode::kDws};

constexpr char kTc[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";

TEST(EdgeCaseTest, EmptyEdbYieldsEmptyResults) {
  // No facts at all: every strategy must still start its workers, detect
  // an immediate fixpoint, and terminate with empty derived relations.
  for (CoordinationMode mode : kAllModes) {
    for (uint32_t workers : {1u, 4u}) {
      EngineOptions options;
      options.coordination = mode;
      options.num_workers = workers;
      DCDatalog db(options);
      db.AddGraph(Graph(), "arc");
      ASSERT_TRUE(db.LoadProgramText(kTc).ok());
      auto stats = db.Run();
      ASSERT_TRUE(stats.ok()) << CoordinationModeName(mode) << " w" << workers
                              << ": " << stats.status().ToString();
      const Relation* tc = db.ResultFor("tc");
      ASSERT_NE(tc, nullptr);
      EXPECT_EQ(tc->size(), 0u)
          << CoordinationModeName(mode) << " w" << workers;
    }
  }
}

TEST(EdgeCaseTest, SelfLoopOnlyGraph) {
  // Every edge is a self loop, so tc is exactly arc and every iteration
  // re-derives the same tuples — a pure dedup/termination workload. (Built
  // by hand: the random generators canonicalize self loops away.)
  Graph g;
  for (uint64_t v = 0; v < 6; ++v) g.AddEdge(v, v);
  const std::set<std::vector<uint64_t>> want = {
      {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}};
  for (CoordinationMode mode : kAllModes) {
    EngineOptions options;
    options.coordination = mode;
    options.num_workers = 4;
    DCDatalog db(options);
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kTc).ok());
    auto stats = db.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(RowSet(*db.ResultFor("tc")), want) << CoordinationModeName(mode);
  }
}

TEST(EdgeCaseTest, SingleWorkerDws) {
  // DWS with one worker: the weighted-wait machinery degenerates to a
  // sequential loop with nobody to wait for or send to — everything must
  // flow through the self-loop bypass.
  Graph g = GenerateGnp(50, 0.08, 0x51D);
  AssignRandomWeights(&g, 20, 0x1E5);
  EngineOptions options;
  options.coordination = CoordinationMode::kDws;
  options.num_workers = 1;
  DCDatalog db(options);
  db.AddGraph(g, "warc", /*weighted=*/true);
  ASSERT_TRUE(
      db.LoadProgramText("sp(T, min<C>) :- T = 0, C = 0.\n"
                         "sp(T2, min<C>) :- sp(T1, C1), warc(T1, T2, C2), "
                         "C = C1 + C2.\n")
          .ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(RowSet(*db.ResultFor("sp")), RowSet(ref.value().at("sp")));
}

TEST(EdgeCaseTest, CountGroupWithDuplicateContributors) {
  // The same (group, contributor) pair arrives multiple times — duplicate
  // base rows AND duplicate derivations from two rules. count<> is
  // count-distinct, so every duplicate must collapse before the final
  // tally no matter which workers the copies landed on.
  for (CoordinationMode mode : kAllModes) {
    EngineOptions options;
    options.coordination = mode;
    options.num_workers = 4;
    DCDatalog db(options);
    auto f = db.CreateRelation("f", Schema::Ints(2));
    ASSERT_TRUE(f.ok());
    f.value()->Append({1, 100});
    f.value()->Append({1, 100});  // Duplicate base row.
    f.value()->Append({1, 101});
    f.value()->Append({2, 100});
    ASSERT_TRUE(
        db.LoadProgramText("p(X, Y) :- f(X, Y).\n"
                           "p(X, Y) :- f(X, Y), Y >= 0.\n"  // Re-derives p.
                           "c(X, count<Y>) :- p(X, Y).\n")
            .ok());
    auto stats = db.Run();
    ASSERT_TRUE(stats.ok()) << CoordinationModeName(mode) << ": "
                            << stats.status().ToString();
    const auto rows = RowSet(*db.ResultFor("c"));
    EXPECT_EQ(rows, (std::set<std::vector<uint64_t>>{
                        {1, WordFromInt(2)}, {2, WordFromInt(1)}}))
        << CoordinationModeName(mode);
    auto ref = ReferenceEvaluate(*db.program(), db.catalog());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(rows, RowSet(ref.value().at("c")));
  }
}

}  // namespace
}  // namespace dcdatalog
