// Tests for the schedule-chaos layer: decision-stream determinism, the
// uninstalled fast path, and — the point of the whole mechanism — engine
// correctness under aggressive perturbation. The stress tests double as
// the TSan chaos workload (ctest -R chaos_test under -DDCDATALOG_TSAN=ON).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/chaos.h"
#include "core/dcdatalog.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "testing/fuzz_runner.h"
#include "testing/program_gen.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

/// Installs a schedule for the lifetime of a scope; uninstalls on exit so
/// no test leaks chaos into its neighbours.
class ScopedChaos {
 public:
  explicit ScopedChaos(ChaosSchedule* schedule) {
    InstallChaosSchedule(schedule);
  }
  ~ScopedChaos() { InstallChaosSchedule(nullptr); }
};

std::vector<ChaosAction> DrawSequence(const ChaosConfig& config, int n) {
  ChaosSchedule schedule(config);
  // Install before drawing: per-thread streams re-seed on installation
  // epoch, so this thread becomes the schedule's ordinal 0.
  ScopedChaos scoped(&schedule);
  std::vector<ChaosAction> actions;
  actions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    actions.push_back(schedule.Decide(ChaosSite::kQueuePush));
  }
  return actions;
}

TEST(ChaosScheduleTest, SameSeedSameSequence) {
  const ChaosConfig config = ChaosConfig::Aggressive(42);
  const auto a = DrawSequence(config, 512);
  const auto b = DrawSequence(config, 512);
  EXPECT_EQ(a, b);
  // And the sequence is not degenerate: aggressive probabilities must
  // actually produce some non-kNone decisions.
  EXPECT_TRUE(std::find_if(a.begin(), a.end(), [](ChaosAction x) {
                return x != ChaosAction::kNone;
              }) != a.end());
}

TEST(ChaosScheduleTest, DifferentSeedsDifferentSequence) {
  const auto a = DrawSequence(ChaosConfig::Aggressive(1), 512);
  const auto b = DrawSequence(ChaosConfig::Aggressive(2), 512);
  EXPECT_NE(a, b);
}

TEST(ChaosScheduleTest, CountersAdvance) {
  ChaosSchedule schedule(ChaosConfig::Aggressive(7));
  ScopedChaos scoped(&schedule);
  for (int i = 0; i < 256; ++i) {
    schedule.Perturb(ChaosSite::kStrategyLoop);
    (void)schedule.DecideFail(ChaosSite::kQueuePush);
  }
  EXPECT_EQ(schedule.decisions(), 512u);
  EXPECT_GT(schedule.perturbations(), 0u);  // yield+sleep ≈ 25% of draws.
  EXPECT_GT(schedule.forced_failures(), 0u);  // fail_prob = 0.10.
  EXPECT_NE(schedule.StatsString().find("decisions=512"), std::string::npos);
}

TEST(ChaosScheduleTest, UninstalledIsInert) {
  InstallChaosSchedule(nullptr);
  EXPECT_EQ(CurrentChaosSchedule(), nullptr);
  // Both macros must be safe no-ops with nothing installed.
  DCD_CHAOS_POINT(kQueuePop);
  EXPECT_FALSE(DCD_CHAOS_FAIL(kQueuePush));
}

#if DCD_CHAOS_ENABLED

// Engine-vs-reference correctness while the installed schedule injects
// yields, sleeps, and forced queue-full events on every coordination path.
// Any result difference means a perturbed interleaving broke coordination.

TEST(ChaosStressTest, TcUnderAggressiveChaos) {
  ChaosSchedule schedule(ChaosConfig::Aggressive(0xC4A05));
  ScopedChaos scoped(&schedule);

  Graph g = GenerateRmat(64, 0x5EED, 4);
  EngineOptions options;
  options.num_workers = 4;
  options.coordination = CoordinationMode::kDws;
  options.spsc_capacity = 8;  // Tiny rings: backpressure paths run hot.
  DCDatalog db(options);
  db.AddGraph(g, "arc");
  ASSERT_TRUE(db.LoadProgramText("tc(X, Y) :- arc(X, Y).\n"
                                 "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n")
                  .ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(RowSet(*db.ResultFor("tc")), RowSet(ref.value().at("tc")))
      << schedule.StatsString();
  // The schedule must actually have perturbed something, or this test is
  // vacuously green.
  EXPECT_GT(schedule.decisions(), 0u);
}

TEST(ChaosStressTest, GeneratedCaseUnderAggressiveChaos) {
  ChaosSchedule schedule(ChaosConfig::Aggressive(0xFA11));
  ScopedChaos scoped(&schedule);

  testing_gen::GenOptions gen;
  gen.seed = 7;  // Aggregates + recursion (min-dist over warc).
  const testing_gen::FuzzCase c = testing_gen::GenerateCase(gen);
  for (CoordinationMode mode :
       {CoordinationMode::kGlobal, CoordinationMode::kDws}) {
    testing_gen::RunConfig config;
    config.mode = mode;
    config.num_workers = 4;
    const auto outcome = testing_gen::RunCaseOnce(c, config);
    EXPECT_EQ(outcome.kind, testing_gen::OutcomeKind::kAgree)
        << CoordinationModeName(mode) << ": " << outcome.detail << "\n"
        << c.ToString();
  }
  EXPECT_GT(schedule.decisions(), 0u);
}

#endif  // DCD_CHAOS_ENABLED

}  // namespace
}  // namespace dcdatalog
