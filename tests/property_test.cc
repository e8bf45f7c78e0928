// Property-based end-to-end tests: randomized workloads swept across
// strategies, worker counts, optimization toggles and queue capacities;
// every configuration must agree with the reference interpreter and with
// every other configuration.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/dcdatalog.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "testing/fuzz_runner.h"
#include "testing/program_gen.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

constexpr char kTc[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n";

constexpr char kSssp[] =
    "sp(To, min<C>) :- To = 0, C = 0.\n"
    "sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.\n";

constexpr char kCc[] =
    "cc2(Y, min<Y>) :- arc(Y, _).\n"
    "cc2(Y, min<Y>) :- arc(_, Y).\n"
    "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"
    "cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).\n";

struct Config {
  CoordinationMode mode;
  uint32_t workers;
  uint32_t spsc_capacity;
};

std::string ConfigName(const Config& c) {
  std::string name = CoordinationModeName(c.mode);
  name += "_w" + std::to_string(c.workers);
  name += "_q" + std::to_string(c.spsc_capacity);
  return name;
}

class ConfigSweep : public ::testing::TestWithParam<Config> {
 protected:
  EngineOptions Opts() {
    const Config& c = GetParam();
    EngineOptions o;
    o.coordination = c.mode;
    o.num_workers = c.workers;
    o.spsc_capacity = c.spsc_capacity;
    return o;
  }
};

TEST_P(ConfigSweep, TcMatchesReference) {
  Graph g = GenerateRmat(128, 0xFEED, 4);
  DCDatalog db(Opts());
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kTc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), RowSet(ref.value().at("tc")));
}

TEST_P(ConfigSweep, SsspMatchesReference) {
  Graph g = GenerateGnp(70, 0.06, 0xBEEF);
  AssignRandomWeights(&g, 30, 0xCAFE);
  DCDatalog db(Opts());
  db.AddGraph(g, "warc", /*weighted=*/true);
  ASSERT_TRUE(db.LoadProgramText(kSssp).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(RowSet(*db.ResultFor("sp")), RowSet(ref.value().at("sp")));
}

TEST_P(ConfigSweep, CcMatchesReference) {
  // Disconnected components with wildly different sizes — worker skew.
  Graph g;
  Rng rng(7);
  uint64_t base = 0;
  for (uint64_t size : {3, 40, 7, 100, 1}) {
    for (uint64_t i = 0; i + 1 < size; ++i) {
      g.AddEdge(base + i, base + rng.Uniform(i + 1));
    }
    base += size + 1;
  }
  DCDatalog db(Opts());
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(kCc).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(RowSet(*db.ResultFor("cc2")), RowSet(ref.value().at("cc2")));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweep,
    ::testing::Values(
        Config{CoordinationMode::kGlobal, 1, 4096},
        Config{CoordinationMode::kGlobal, 5, 512},
        Config{CoordinationMode::kGlobal, 2, 4096},
        Config{CoordinationMode::kDws, 7, 512},
        Config{CoordinationMode::kDws, 3, 512},
        Config{CoordinationMode::kDws, 6, 4096},
        Config{CoordinationMode::kDws, 4, 2}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return ConfigName(info.param);
    });

/// Random-program property: random chain programs (non-recursive + one
/// recursive SCC with random constants) agree with the reference.
class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, RandomReachabilityVariant) {
  Rng rng(1000 + GetParam());
  Graph g = GenerateGnp(40 + rng.Uniform(40), 0.05 + 0.05 * rng.NextDouble(),
                        rng.Next());
  // Randomized variant of reachability-with-bound: seed vertex, hop cap
  // expressed through weights.
  const uint64_t seed_vertex = rng.Uniform(g.num_vertices());
  char program[512];
  std::snprintf(program, sizeof(program),
                "hops(V, min<H>) :- V = %llu, H = 0.\n"
                "hops(W, min<H>) :- hops(V, H1), arc(V, W), H = H1 + 1.\n"
                "near(V) :- hops(V, H), H <= %llu.\n",
                static_cast<unsigned long long>(seed_vertex),
                static_cast<unsigned long long>(1 + rng.Uniform(4)));

  EngineOptions opts;
  opts.num_workers = 1 + static_cast<uint32_t>(rng.Uniform(6));
  opts.coordination = rng.Uniform(2) == 0 ? CoordinationMode::kGlobal
                                           : CoordinationMode::kDws;
  DCDatalog db(opts);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText(program).ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(RowSet(*db.ResultFor("hops")), RowSet(ref.value().at("hops")));
  EXPECT_EQ(RowSet(*db.ResultFor("near")), RowSet(ref.value().at("near")));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 12));

/// Generator-found regression corpus: fixed seeds of the fuzz-harness
/// program generator (tools/dcd_fuzz), promoted here so every build replays
/// them deterministically across all strategies and worker counts. The
/// seeds were picked for family coverage: min/max/count aggregates,
/// negation, non-linear recursion, mutual recursion, weighted arcs, and an
/// empty EDB (seed 28).
class GeneratedCorpus : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedCorpus, AllConfigsMatchReference) {
  testing_gen::GenOptions gen;
  gen.seed = GetParam();
  const testing_gen::FuzzCase c = testing_gen::GenerateCase(gen);
  // The oracle is configuration-independent: compute once, diff six runs.
  testing_gen::OracleRows oracle;
  const auto ref = testing_gen::ComputeOracle(c, /*max_rounds=*/100000,
                                              &oracle);
  ASSERT_EQ(ref.kind, testing_gen::OutcomeKind::kAgree)
      << ref.detail << "\n" << c.ToString();
  for (CoordinationMode mode :
       {CoordinationMode::kGlobal, CoordinationMode::kDws}) {
    for (uint32_t workers : {1u, 2u, 4u}) {
      testing_gen::RunConfig config;
      config.mode = mode;
      config.num_workers = workers;
      const auto outcome = testing_gen::RunEngineOnce(c, config, oracle);
      EXPECT_EQ(outcome.kind, testing_gen::OutcomeKind::kAgree)
          << CoordinationModeName(mode) << " w" << workers << ": "
          << outcome.detail << "\n" << c.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GeneratedCorpus,
                         ::testing::Values(1, 2, 4, 6, 9, 19, 22, 28, 31, 34,
                                           42, 50));

}  // namespace
}  // namespace dcdatalog
