// Unit tests for src/graph: graph container, loaders, and the synthetic
// dataset generators of paper §7.1.1.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "graph/generators.h"
#include "graph/graph.h"

namespace dcdatalog {
namespace {

TEST(GraphTest, AddEdgeTracksVertexCount) {
  Graph g;
  g.AddEdge(3, 7);
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, CanonicalizeRemovesDupsAndLoops) {
  Graph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 2);
  g.AddEdge(2, 1);
  g.Canonicalize();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphTest, ToRelations) {
  Graph g;
  g.AddEdge(1, 2, 5);
  Relation arc = g.ToArcRelation();
  EXPECT_EQ(arc.arity(), 2u);
  EXPECT_EQ(arc.Row(0)[1], 2u);
  Relation warc = g.ToWeightedArcRelation();
  EXPECT_EQ(warc.arity(), 3u);
  EXPECT_EQ(IntFromWord(warc.Row(0)[2]), 5);
}

TEST(GraphTest, SaveLoadRoundTrip) {
  Graph g;
  g.AddEdge(0, 1, 3);
  g.AddEdge(1, 2);
  const std::string path = ::testing::TempDir() + "/graph_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), 2u);
  EXPECT_EQ(loaded.value().edges()[0].weight, 3);
  EXPECT_EQ(loaded.value().edges()[1].weight, 1);
  std::remove(path.c_str());
}

TEST(GraphTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/graph_bad.txt";
  FILE* f = fopen(path.c_str(), "w");
  fputs("# comment ok\n1 2\nnot numbers\n", f);
  fclose(f);
  EXPECT_FALSE(LoadEdgeList(path).ok());
  std::remove(path.c_str());
}

TEST(GeneratorsTest, RmatDeterministicAndSized) {
  Graph a = GenerateRmat(1000, 42);
  Graph b = GenerateRmat(1000, 42);
  Graph c = GenerateRmat(1000, 43);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(a.edges() == b.edges());
  EXPECT_FALSE(a.edges() == c.edges());
  // Canonicalization dedups, so edges ≤ 10·n but in the right ballpark.
  EXPECT_GT(a.num_edges(), 5000u);
  EXPECT_LE(a.num_edges(), 10000u);
  for (const Edge& e : a.edges()) {
    ASSERT_LT(e.src, 1000u);
    ASSERT_LT(e.dst, 1000u);
    ASSERT_NE(e.src, e.dst);
  }
}

TEST(GeneratorsTest, RmatIsSkewed) {
  // RMAT's defining property: heavy-tailed degree distribution. The top
  // vertex should carry far more than the average degree.
  Graph g = GenerateRmat(4096, 7);
  std::map<uint64_t, uint64_t> outdeg;
  for (const Edge& e : g.edges()) ++outdeg[e.src];
  uint64_t max_deg = 0;
  for (const auto& [v, d] : outdeg) max_deg = std::max(max_deg, d);
  const double avg = static_cast<double>(g.num_edges()) / 4096.0;
  EXPECT_GT(max_deg, avg * 10);
}

TEST(GeneratorsTest, GnpEdgeCountNearExpectation) {
  Graph g = GenerateGnp(1000, 0.01, 3);
  const double expected = 1000.0 * 1000.0 * 0.01;
  EXPECT_GT(g.num_edges(), expected * 0.8);
  EXPECT_LT(g.num_edges(), expected * 1.2);
  EXPECT_TRUE(GenerateGnp(1000, 0.01, 3).edges() == g.edges());
}

TEST(GeneratorsTest, RandomTreeShape) {
  Graph g = GenerateRandomTree(6, 11);
  // A tree: edges = vertices - 1; every non-root has exactly one parent.
  EXPECT_EQ(g.num_edges(), g.num_vertices() - 1);
  std::set<uint64_t> children;
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(children.insert(e.dst).second) << "node with two parents";
  }
  EXPECT_EQ(children.count(0), 0u);  // Root has no parent.
}

TEST(GeneratorsTest, LeveledTreeHitsTarget) {
  Graph g = GenerateLeveledTree(5000, 17);
  EXPECT_EQ(g.num_vertices(), 5000u);
  EXPECT_EQ(g.num_edges(), 4999u);
}

TEST(GeneratorsTest, SocialGraphPermutesIds) {
  Graph social = GenerateSocialGraph(2048, 8, 5);
  Graph rmat = GenerateRmat(2048, 5, 8);
  EXPECT_EQ(social.num_edges(), rmat.num_edges());
  EXPECT_FALSE(social.edges() == rmat.edges());  // Relabeled.
}

TEST(GeneratorsTest, StarHubShape) {
  const uint64_t spokes = 64;
  Graph a = GenerateStarHub(spokes, 3);
  Graph b = GenerateStarHub(spokes, 3);
  EXPECT_TRUE(a.edges() == b.edges());
  EXPECT_EQ(a.num_vertices(), 2 * spokes + 1);
  // 2·spokes star edges + the short sink chain.
  EXPECT_GE(a.num_edges(), 2 * spokes);
  EXPECT_LE(a.num_edges(), 2 * spokes + spokes / 8);
  // One vertex is both the target of `spokes` edges and the source of
  // `spokes` edges — the hub whose δ-backlog lands on a single worker.
  std::map<uint64_t, uint64_t> indeg, outdeg;
  for (const Edge& e : a.edges()) {
    ++outdeg[e.src];
    ++indeg[e.dst];
  }
  uint64_t hubs = 0;
  for (const auto& [v, d] : indeg) {
    if (d == spokes) {
      ++hubs;
      EXPECT_EQ(outdeg[v], spokes);
    }
  }
  EXPECT_EQ(hubs, 1u);
}

TEST(GeneratorsTest, ZipfDegreeSkewed) {
  Graph a = GenerateZipfDegree(2000, 1.0, 500, 11);
  Graph b = GenerateZipfDegree(2000, 1.0, 500, 11);
  EXPECT_TRUE(a.edges() == b.edges());
  std::map<uint64_t, uint64_t> outdeg;
  for (const Edge& e : a.edges()) {
    ASSERT_LT(e.src, 2000u);
    ASSERT_LT(e.dst, 2000u);
    ASSERT_NE(e.src, e.dst);
    ++outdeg[e.src];
  }
  uint64_t max_deg = 0;
  for (const auto& [v, d] : outdeg) max_deg = std::max(max_deg, d);
  const double avg = static_cast<double>(a.num_edges()) / 2000.0;
  // Rank-0 vertex gets ~max_degree edges (minus self-loop/dup losses);
  // the harmonic-series average stays far below it.
  EXPECT_GT(max_deg, 400u);
  EXPECT_GT(max_deg, avg * 20);
}

TEST(GeneratorsTest, AssignRandomWeights) {
  Graph g = GenerateGnp(200, 0.05, 9);
  AssignRandomWeights(&g, 100, 13);
  bool varied = false;
  for (const Edge& e : g.edges()) {
    ASSERT_GE(e.weight, 1);
    ASSERT_LE(e.weight, 100);
    varied |= e.weight != g.edges()[0].weight;
  }
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace dcdatalog
