// End-to-end integration tests: the parallel engine against the reference
// interpreter on every paper query, across coordination strategies.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "core/dcdatalog.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::ApproxEqualLastDouble;
using testing_util::RowSet;

constexpr char kTcProgram[] = R"(
  tc(X, Y) :- arc(X, Y).
  tc(X, Y) :- tc(X, Z), arc(Z, Y).
)";

constexpr char kCcProgram[] = R"(
  cc2(Y, min<Y>) :- arc(Y, _).
  cc2(Y, min<Y>) :- arc(_, Y).
  cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).
  cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).
  cc(Y, min<Z>) :- cc2(Y, Z).
)";

constexpr char kSsspProgram[] = R"(
  sp(To, min<C>) :- To = 0, C = 0.
  sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
  results(To, min<C>) :- sp(To, C).
)";

constexpr char kSgProgram[] = R"(
  sg(X, Y) :- arc(P, X), arc(P, Y), X != Y.
  sg(X, Y) :- arc(A, X), sg(A, B), arc(B, Y).
)";

constexpr char kDeliveryProgram[] = R"(
  delivery(P, max<D>) :- basic(P, D).
  delivery(P, max<D>) :- assbl(P, S), delivery(S, D).
  results(P, max<D>) :- delivery(P, D).
)";

constexpr char kApspProgram[] = R"(
  path(A, B, min<D>) :- warc(A, B, D).
  path(A, B, min<D>) :- path(A, C, D1), path(C, B, D2), D = D1 + D2.
  apsp(A, B, min<D>) :- path(A, B, D).
)";

constexpr char kAttendProgram[] = R"(
  attend(X) :- organizer(X).
  cnt(Y, count<X>) :- attend(X), friend(Y, X).
  attend(X) :- cnt(X, N), N >= 3.
)";

class EngineVsReference
    : public ::testing::TestWithParam<CoordinationMode> {
 protected:
  EngineOptions Opts(uint32_t workers = 4) {
    EngineOptions o;
    o.num_workers = workers;
    o.coordination = GetParam();
    return o;
  }

  /// Runs `program` on `db` and compares every derived predicate against
  /// the reference interpreter.
  void RunAndCompare(DCDatalog& db, const std::string& program) {
    ASSERT_TRUE(db.LoadProgramText(program).ok());
    auto stats = db.Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    // Reference needs the base relations only; derived ones were replaced
    // in db's catalog, so re-derive the reference from a parsed program.
    auto ref = ReferenceEvaluate(*db.program(), db.catalog());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const auto& [name, expected] : ref.value()) {
      const Relation* actual = db.ResultFor(name);
      ASSERT_NE(actual, nullptr) << name;
      EXPECT_EQ(RowSet(*actual), RowSet(expected)) << "predicate " << name;
    }
  }
};

TEST_P(EngineVsReference, TransitiveClosureChain) {
  DCDatalog db(Opts());
  Graph g;
  for (uint64_t i = 0; i < 12; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  RunAndCompare(db, kTcProgram);
  // Chain of 13 vertices: n*(n-1)/2 = 78 pairs.
  EXPECT_EQ(db.ResultFor("tc")->size(), 78u);
}

TEST_P(EngineVsReference, TransitiveClosureRandom) {
  DCDatalog db(Opts());
  Graph g = GenerateGnp(60, 0.04, /*seed=*/7);
  db.AddGraph(g, "arc");
  RunAndCompare(db, kTcProgram);
}

TEST_P(EngineVsReference, ConnectedComponents) {
  DCDatalog db(Opts());
  // Two components: a cycle 0-4 and a path 10-14.
  Graph g;
  for (uint64_t i = 0; i < 5; ++i) g.AddEdge(i, (i + 1) % 5);
  for (uint64_t i = 10; i < 14; ++i) g.AddEdge(i, i + 1);
  db.AddGraph(g, "arc");
  RunAndCompare(db, kCcProgram);
  const Relation* cc = db.ResultFor("cc");
  // All of 0..4 label 0; all of 10..14 label 10.
  auto rows = RowSet(*cc);
  for (const auto& row : rows) {
    EXPECT_EQ(IntFromWord(row[1]), row[0] < 5 ? 0 : 10);
  }
}

TEST_P(EngineVsReference, SsspWeighted) {
  DCDatalog db(Opts());
  Graph g = GenerateGnp(80, 0.05, /*seed=*/13);
  AssignRandomWeights(&g, 20, /*seed=*/17);
  db.AddGraph(g, "warc", /*weighted=*/true);
  RunAndCompare(db, kSsspProgram);
}

TEST_P(EngineVsReference, SameGeneration) {
  DCDatalog db(Opts());
  Graph g = GenerateRandomTree(4, /*seed=*/3);
  db.AddGraph(g, "arc");
  RunAndCompare(db, kSgProgram);
}

TEST_P(EngineVsReference, DeliveryBillOfMaterials) {
  DCDatalog db(Opts());
  // assbl: assembly tree; basic: leaf delivery days.
  Graph tree = GenerateRandomTree(5, /*seed=*/11);
  db.AddGraph(tree, "assbl");
  Relation basic("basic", Schema::Ints(2));
  Rng rng(23);
  // Leaves = vertices with no outgoing edges.
  std::set<uint64_t> non_leaves;
  for (const Edge& e : tree.edges()) non_leaves.insert(e.src);
  for (uint64_t v = 0; v < tree.num_vertices(); ++v) {
    if (non_leaves.count(v) == 0) {
      basic.Append({v, static_cast<uint64_t>(rng.UniformRange(1, 30))});
    }
  }
  db.catalog().Put(std::move(basic));
  RunAndCompare(db, kDeliveryProgram);
}

TEST_P(EngineVsReference, ApspNonLinear) {
  DCDatalog db(Opts());
  Graph g = GenerateGnp(24, 0.12, /*seed=*/29);
  AssignRandomWeights(&g, 10, /*seed=*/31);
  db.AddGraph(g, "warc", /*weighted=*/true);
  RunAndCompare(db, kApspProgram);
}

TEST_P(EngineVsReference, AttendMutualRecursion) {
  DCDatalog db(Opts());
  Relation organizer("organizer", Schema::Ints(1));
  organizer.Append({0});
  organizer.Append({1});
  organizer.Append({2});
  db.catalog().Put(std::move(organizer));

  Relation friends("friend", Schema::Ints(2));
  Rng rng(41);
  const uint64_t people = 40;
  for (uint64_t p = 0; p < people; ++p) {
    for (int k = 0; k < 6; ++k) {
      friends.Append({p, rng.Uniform(people)});
    }
  }
  db.catalog().Put(std::move(friends));
  RunAndCompare(db, kAttendProgram);
}

TEST_P(EngineVsReference, StratifiedNegationUnreachable) {
  DCDatalog db(Opts());
  Graph g = GenerateGnp(28, 0.08, /*seed=*/51);
  db.AddGraph(g, "arc");
  RunAndCompare(db, R"(
    tc(X, Y) :- arc(X, Y).
    tc(X, Y) :- tc(X, Z), arc(Z, Y).
    node(X) :- arc(X, _).
    node(X) :- arc(_, X).
    unreach(X, Y) :- node(X), node(Y), !tc(X, Y).
    sinkish(X) :- node(X), !arc(X, _).
  )");
}

TEST_P(EngineVsReference, NegationWithConstantsAndWildcards) {
  DCDatalog db(Opts());
  Relation arc("arc", Schema::Ints(2));
  arc.Append({0, 1});
  arc.Append({1, 2});
  arc.Append({2, 0});
  arc.Append({3, 3});
  db.catalog().Put(std::move(arc));
  RunAndCompare(db, R"(
    node(X) :- arc(X, _).
    notfromzero(X) :- node(X), !arc(0, X).
  )");
}

TEST_P(EngineVsReference, PageRankApprox) {
  EngineOptions opts = Opts();
  opts.sum_epsilon = 1e-10;
  DCDatalog db(opts);
  Graph g = GenerateGnp(40, 0.1, /*seed=*/47);
  // Build matrix(Y, X, D): an edge Y→X with out-degree D of Y.
  std::map<uint64_t, int64_t> outdeg;
  for (const Edge& e : g.edges()) ++outdeg[e.src];
  Relation matrix("matrix", Schema::Ints(3));
  for (const Edge& e : g.edges()) {
    matrix.Append({e.src, e.dst, WordFromInt(outdeg[e.src])});
  }
  db.catalog().Put(std::move(matrix));

  const std::string pr = R"(
    rank(X, sum<(X, I)>) :- matrix(X, _, _), I = 0.15 / 40.0.
    rank(X, sum<(Y, K)>) :- rank(Y, C), matrix(Y, X, D), K = 0.85 * (C / D).
    results(X, V) :- rank(X, V).
  )";
  ASSERT_TRUE(db.LoadProgramText(pr).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto ref = ReferenceEvaluate(*db.program(), db.catalog(), 1e-10);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const Relation* actual = db.ResultFor("rank");
  ASSERT_NE(actual, nullptr);
  EXPECT_TRUE(
      ApproxEqualLastDouble(*actual, ref.value().at("rank"), 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, EngineVsReference,
    ::testing::Values(CoordinationMode::kGlobal, CoordinationMode::kDws),
    [](const ::testing::TestParamInfo<CoordinationMode>& info) {
      return CoordinationModeName(info.param);
    });

}  // namespace
}  // namespace dcdatalog
