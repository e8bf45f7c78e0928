// Tests for the fuzz-harness building blocks that don't need a running
// engine: the random program generator (determinism, validity, family
// diversity) and the failure minimizer (driven by a synthetic oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <string>
#include <vector>

#include "core/dcdatalog.h"
#include "testing/minimizer.h"
#include "testing/program_gen.h"

namespace dcdatalog {
namespace {

using testing_gen::FuzzCase;
using testing_gen::GenerateCase;
using testing_gen::GenOptions;
using testing_gen::HeadPredicates;
using testing_gen::Minimize;
using testing_gen::MinimizeOptions;

FuzzCase CaseForSeed(uint64_t seed) {
  GenOptions options;
  options.seed = seed;
  return GenerateCase(options);
}

bool HasNonlinearRule(const std::string& program) {
  // name(X, Y) :- name(X, Z), name(Z, Y).  — the generator's only
  // non-linear shape: the same predicate appears twice in its own body.
  size_t pos = 0;
  while (pos < program.size()) {
    const size_t eol = program.find('\n', pos);
    const std::string line = program.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? program.size() : eol + 1;
    const size_t paren = line.find('(');
    const size_t sep = line.find(":-");
    if (paren == std::string::npos || sep == std::string::npos) continue;
    const std::string head = line.substr(0, paren);
    const std::string body = line.substr(sep);
    size_t first = body.find(head + "(");
    if (first == std::string::npos) continue;
    if (body.find(head + "(", first + 1) != std::string::npos) return true;
  }
  return false;
}

TEST(ProgramGenTest, SameSeedSameCase) {
  for (uint64_t seed : {1, 7, 23, 41}) {
    const FuzzCase a = CaseForSeed(seed);
    const FuzzCase b = CaseForSeed(seed);
    EXPECT_EQ(a.program, b.program) << "seed " << seed;
    EXPECT_EQ(a.outputs, b.outputs) << "seed " << seed;
    EXPECT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
    EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
  }
}

TEST(ProgramGenTest, DifferentSeedsDiffer) {
  EXPECT_NE(CaseForSeed(1).program, CaseForSeed(2).program);
}

TEST(ProgramGenTest, EveryCaseLoads) {
  // Each generated case must survive the real front end: parse, analyze,
  // and plan against its own EDB. Loading into a DCDatalog instance covers
  // parse/analysis; a case the generator's internal validation let slip
  // would fail here.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzCase c = CaseForSeed(seed);
    ASSERT_FALSE(c.program.empty()) << "seed " << seed;
    ASSERT_FALSE(c.outputs.empty()) << "seed " << seed;
    EngineOptions options;
    options.num_workers = 1;
    DCDatalog db(options);
    const Status st = c.Load(&db);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString() << "\n"
                         << c.ToString();
  }
}

TEST(ProgramGenTest, FamiliesAreDiverse) {
  // The harness only earns its keep if the corpus actually exercises the
  // distinct code paths (aggregate kinds, negation, non-linear recursion,
  // weighted arcs, degenerate EDBs, aggregate roll-ups, sharded
  // Backward/Forward deletes). Thresholds sit well below the measured
  // frequencies over seeds 1..60 (min 24, max 10, count 16, negation 5,
  // non-linear 8, warc 9, empty EDB 1, roll-up 5, sharded SCC 39),
  // so they only fire if the generator's family mix genuinely collapses.
  int with_min = 0, with_max = 0, with_count = 0, with_neg = 0;
  int with_nonlinear = 0, with_warc = 0, with_empty_edb = 0;
  // A min/max roll-up of an earlier aggregate: `name(X, min<C>) :- p3(X,
  // C)`, or through a join — the incremental insert path's monotone
  // reader.
  int with_rollup = 0;
  const std::regex rollup("<C>\\) :- p[0-9]+\\(X, C\\)");
  // A recursive SCC whose deletes run one Backward/Forward shard per
  // worker: `dcd_fuzz --update-batches` reaches the sharded path.
  int with_sharded = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzCase c = CaseForSeed(seed);
    if (std::regex_search(c.program, rollup)) ++with_rollup;
    if (c.program.find("min<") != std::string::npos) ++with_min;
    if (c.program.find("max<") != std::string::npos) ++with_max;
    if (c.program.find("count<") != std::string::npos) ++with_count;
    if (c.program.find('!') != std::string::npos) ++with_neg;
    if (c.program.find("warc") != std::string::npos) ++with_warc;
    if (HasNonlinearRule(c.program)) ++with_nonlinear;
    if (c.graph.num_edges() == 0) ++with_empty_edb;
    DCDatalog db(EngineOptions{});
    ASSERT_TRUE(c.Load(&db).ok()) << "seed " << seed;
    auto plan = db.ExplainPhysical();
    ASSERT_TRUE(plan.ok()) << "seed " << seed;
    if (plan.value().find("(recursive) shard col") != std::string::npos) {
      ++with_sharded;
    }
  }
  EXPECT_GE(with_min, 5);
  EXPECT_GE(with_max, 2);
  EXPECT_GE(with_count, 3);
  EXPECT_GE(with_neg, 1);
  EXPECT_GE(with_nonlinear, 1);
  EXPECT_GE(with_warc, 2);
  EXPECT_GE(with_empty_edb, 1);
  EXPECT_GE(with_rollup, 2);
  EXPECT_GE(with_sharded, 10);
}

TEST(ProgramGenTest, HeadPredicatesInDefinitionOrder) {
  const std::vector<std::string> heads = HeadPredicates(
      "a(X, Y) :- arc(X, Y).\n"
      "b(X) :- a(X, _).\n"
      "a(X, Y) :- a(X, Z), arc(Z, Y).\n"
      "c(X, count<Y>) :- a(X, Y).\n");
  EXPECT_EQ(heads, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(HeadPredicates("").empty());
}

TEST(MinimizerTest, ShrinksToOneMinimalCase) {
  // Synthetic failure: the bug "reproduces" iff the recursive b-rule
  // survives and at least one edge remains. The minimizer should strip
  // every other rule, shrink the chain to a single edge, and drop the
  // worker count to 1.
  FuzzCase failing;
  failing.seed = 99;
  failing.program =
      "a(X, Y) :- arc(X, Y).\n"
      "b(X, Y) :- arc(X, Y).\n"
      "b(X, Y) :- b(X, Z), arc(Z, Y).\n";
  failing.outputs = {"a", "b"};
  for (uint64_t i = 0; i < 8; ++i) failing.graph.AddEdge(i, i + 1);

  uint32_t probes = 0;
  const auto still_fails = [&probes](const FuzzCase& c, uint32_t workers) {
    ++probes;
    return workers >= 1 && c.graph.num_edges() >= 1 &&
           c.program.find("b(X, Y) :- b(X, Z)") != std::string::npos;
  };
  const auto result = Minimize(failing, /*num_workers=*/4, still_fails);

  EXPECT_EQ(result.reduced.program, "b(X, Y) :- b(X, Z), arc(Z, Y).\n");
  EXPECT_EQ(result.reduced.outputs, (std::vector<std::string>{"b"}));
  EXPECT_EQ(result.reduced.graph.num_edges(), 1u);
  EXPECT_EQ(result.num_workers, 1u);
  EXPECT_EQ(result.probes, probes);
  EXPECT_LE(result.probes, MinimizeOptions{}.max_probes);
  EXPECT_TRUE(still_fails(result.reduced, result.num_workers));
}

TEST(MinimizerTest, RespectsProbeBudget) {
  FuzzCase failing;
  failing.program = "a(X, Y) :- arc(X, Y).\n";
  failing.outputs = {"a"};
  for (uint64_t i = 0; i < 100; ++i) failing.graph.AddEdge(i, i + 1);

  MinimizeOptions options;
  options.max_probes = 5;
  uint32_t probes = 0;
  const auto always_fails = [&probes](const FuzzCase&, uint32_t) {
    ++probes;
    return true;
  };
  const auto result = Minimize(failing, 4, always_fails, options);
  EXPECT_LE(probes, options.max_probes);
  EXPECT_TRUE(always_fails(result.reduced, result.num_workers));
}

}  // namespace
}  // namespace dcdatalog
