// Unit tests for the vectorized batch pipeline executor (§5.2), the only
// rule executor: drives BatchPipelineRunner directly over planner-compiled
// base rules and checks the selection-vector edge cases — empty batches,
// batches the filters empty out entirely, and probe fan-out larger than one
// batch from a single driving row. Each case compares the emitted multiset
// with one the test computes by nested loops over the catalog relations;
// whole programs are checked by the differential fuzzer against
// ReferenceEvaluate.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/value.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "planner/logical_plan.h"
#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "storage/catalog.h"

namespace dcdatalog {
namespace {

using Rows = std::multiset<std::vector<uint64_t>>;

/// Collects emitted wire tuples.
struct Collector {
  Rows rows;

  static void BatchThunk(void* c, const HeadSpec& head, const uint64_t* wires,
                         uint32_t count, uint32_t wire_arity) {
    EXPECT_EQ(wire_arity, head.agg.wire_arity);
    auto* self = static_cast<Collector*>(c);
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t* w = wires + static_cast<size_t>(i) * wire_arity;
      self->rows.emplace(w, w + wire_arity);
    }
  }
};

class BatchPipelineTest : public ::testing::Test {
 protected:
  /// Compiles `program` against the catalog and caches the single base rule
  /// of the SCC deriving `pred`.
  void Plan(const std::string& program, const std::string& pred) {
    auto p = ParseProgram(program, &dict_);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto a = ProgramAnalysis::Analyze(program_, catalog_);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto logical = BuildLogicalPlans(program_, a.value());
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    auto physical = BuildPhysicalPlan(program_, a.value(), logical.value());
    ASSERT_TRUE(physical.ok()) << physical.status().ToString();
    plan_ = std::move(physical).value();
    rule_ = nullptr;
    for (const SccPlan& scc : plan_.sccs) {
      for (const std::string& d : scc.derived_preds) {
        if (d == pred) {
          ASSERT_EQ(scc.base_rules.size(), 1u);
          rule_ = &scc.base_rules[0];
        }
      }
    }
    ASSERT_NE(rule_, nullptr) << "no SCC derives " << pred;

    indexes_ = std::make_unique<BaseIndexSet>(plan_.base_indexes);
    for (size_t i = 0; i < plan_.base_indexes.size(); ++i) {
      ASSERT_TRUE(
          indexes_->EnsureBuilt(static_cast<int>(i), catalog_).ok());
    }
    ctx_.catalog = &catalog_;
    ctx_.base_indexes = indexes_.get();
    ctx_.replicas = &no_replicas_;
    PreparePipeline(*rule_, &ctx_);
  }

  /// Runs the batch executor over every driving-relation row.
  void RunBatchExecutor(Collector* out, BatchPipelineRunner* runner) {
    runner->Begin(*rule_, &ctx_, BatchEmitSink{&Collector::BatchThunk, out});
    const Relation* driving = catalog_.Find(rule_->driving_relation);
    ASSERT_NE(driving, nullptr);
    for (uint64_t r = 0; r < driving->size(); ++r) {
      runner->Push(driving->Row(r));
    }
    runner->Finish();
  }

  /// The expected output of `out(X, ...) :- src(X), <keep X>, edge(X, Y)`:
  /// nested loops over the catalog's src and edge, one row `make(X, Y)`
  /// per match.
  template <typename Keep, typename Make>
  Rows JoinSrcEdge(const Keep& keep, const Make& make) const {
    Rows want;
    const Relation* src = catalog_.Find("src");
    const Relation* edge = catalog_.Find("edge");
    for (uint64_t s = 0; s < src->size(); ++s) {
      const int64_t x = IntFromWord(src->Row(s)[0]);
      if (!keep(x)) continue;
      for (uint64_t e = 0; e < edge->size(); ++e) {
        if (IntFromWord(edge->Row(e)[0]) != x) continue;
        want.insert(make(x, IntFromWord(edge->Row(e)[1])));
      }
    }
    return want;
  }

  /// `(X, Y)` as a wire row.
  static std::vector<uint64_t> Pair(int64_t x, int64_t y) {
    return {WordFromInt(x), WordFromInt(y)};
  }

  Catalog catalog_;
  StringDict dict_;
  Program program_;
  PhysicalPlan plan_;
  const PhysicalRule* rule_ = nullptr;
  std::unique_ptr<BaseIndexSet> indexes_;
  std::vector<std::unique_ptr<RecursiveTable>> no_replicas_;
  PipelineContext ctx_;
};

TEST_F(BatchPipelineTest, EmptyBatchIsANoOp) {
  auto* src = catalog_.Put(Relation("src", Schema::Ints(1)));
  auto* edge = catalog_.Put(Relation("edge", Schema::Ints(2)));
  edge->Append({WordFromInt(0), WordFromInt(1)});
  (void)src;  // Driving relation left empty: Begin + Finish with no Push.
  Plan("out(X, Y) :- src(X), edge(X, Y).", "out");

  Collector got;
  BatchPipelineRunner runner;
  RunBatchExecutor(&got, &runner);
  EXPECT_TRUE(got.rows.empty());
  EXPECT_EQ(got.rows, JoinSrcEdge([](int64_t) { return true; }, Pair));
  EXPECT_EQ(runner.batches(), 0u);
  EXPECT_EQ(runner.rows_selected(), 0u);
}

TEST_F(BatchPipelineTest, AllFilteredBatchEmitsNothing) {
  // The filter empties the selection vector mid-pipeline; the steps after
  // it (the probe) and the emission must both be skipped without touching
  // lane state.
  auto* src = catalog_.Put(Relation("src", Schema::Ints(1)));
  auto* edge = catalog_.Put(Relation("edge", Schema::Ints(2)));
  for (int64_t i = 0; i < 100; ++i) {
    src->Append({WordFromInt(i)});
    edge->Append({WordFromInt(i), WordFromInt(i + 1)});
  }
  Plan("out(X, Y) :- src(X), X > 1000000, edge(X, Y).", "out");

  Collector got;
  BatchPipelineRunner runner;
  RunBatchExecutor(&got, &runner);
  EXPECT_TRUE(got.rows.empty());
  EXPECT_EQ(got.rows,
            JoinSrcEdge([](int64_t x) { return x > 1000000; }, Pair));
  // The driving scan admitted every row — the filter, not admission,
  // emptied the batch.
  EXPECT_EQ(runner.rows_selected(), 100u);
  EXPECT_EQ(runner.batches(), 1u);
}

TEST_F(BatchPipelineTest, FanOutLargerThanBatchFromOneProbe) {
  // One driving row probes into 600 matches — more than kBatchPipelineLanes
  // — so the probe must flush the downstream level mid-iteration (twice)
  // and still emit the trailing partial level.
  constexpr int64_t kMatches = 600;
  static_assert(kMatches > static_cast<int64_t>(kBatchPipelineLanes));
  auto* src = catalog_.Put(Relation("src", Schema::Ints(1)));
  auto* edge = catalog_.Put(Relation("edge", Schema::Ints(2)));
  src->Append({WordFromInt(0)});
  for (int64_t i = 0; i < kMatches; ++i) {
    edge->Append({WordFromInt(0), WordFromInt(i)});
  }
  Plan("out(X, Y) :- src(X), edge(X, Y).", "out");
  ASSERT_EQ(rule_->driving_relation, "src");

  Collector got;
  BatchPipelineRunner runner;
  RunBatchExecutor(&got, &runner);
  EXPECT_EQ(got.rows.size(), static_cast<size_t>(kMatches));
  EXPECT_EQ(got.rows, JoinSrcEdge([](int64_t) { return true; }, Pair));
  EXPECT_EQ(runner.batches(), 1u);
  EXPECT_EQ(runner.rows_selected(), 1u);
}

TEST_F(BatchPipelineTest, DrivingScanConstChecksGateAdmission) {
  // A constant in the driving atom rejects rows before they occupy lanes:
  // rows_selected counts admissions, not pushes.
  auto* edge = catalog_.Put(Relation("edge", Schema::Ints(2)));
  for (int64_t i = 0; i < 50; ++i) {
    edge->Append({WordFromInt(i % 5), WordFromInt(i)});
  }
  Plan("out(Y) :- edge(3, Y).", "out");
  ASSERT_EQ(rule_->driving_relation, "edge");

  Collector got;
  BatchPipelineRunner runner;
  RunBatchExecutor(&got, &runner);
  Rows want;
  for (uint64_t r = 0; r < edge->size(); ++r) {
    if (IntFromWord(edge->Row(r)[0]) == 3) want.insert({edge->Row(r)[1]});
  }
  EXPECT_EQ(got.rows, want);
  EXPECT_EQ(got.rows.size(), 10u);
  EXPECT_EQ(runner.rows_selected(), 10u);
}

TEST_F(BatchPipelineTest, MultiBatchMixedPipelineMatchesNestedLoops) {
  // > 3 full batches plus a partial one through a filter + bind + probe
  // pipeline; the multisets (not sets — fan-out produces duplicates under
  // projection) must agree exactly with the nested-loop join.
  constexpr int64_t kRows = 1000;
  auto* src = catalog_.Put(Relation("src", Schema::Ints(1)));
  auto* edge = catalog_.Put(Relation("edge", Schema::Ints(2)));
  for (int64_t i = 0; i < kRows; ++i) {
    src->Append({WordFromInt(i)});
    edge->Append({WordFromInt(i % 97), WordFromInt(i)});
    edge->Append({WordFromInt(i % 97), WordFromInt(i + 1)});
  }
  Plan("out(X, S) :- src(X), X < 500, edge(X, Y), S = X * 1000 + Y.", "out");
  ASSERT_EQ(rule_->driving_relation, "src");

  Collector got;
  BatchPipelineRunner runner;
  RunBatchExecutor(&got, &runner);
  EXPECT_FALSE(got.rows.empty());
  EXPECT_EQ(got.rows,
            JoinSrcEdge([](int64_t x) { return x < 500; },
                        [](int64_t x, int64_t y) {
                          return Pair(x, x * 1000 + y);
                        }));
  // 1000 pushed rows all pass the (check-free) driving scan: ceil(1000/256)
  // batches, the last one partial.
  EXPECT_EQ(runner.rows_selected(), static_cast<uint64_t>(kRows));
  EXPECT_EQ(runner.batches(),
            (kRows + kBatchPipelineLanes - 1) / kBatchPipelineLanes);
}

}  // namespace
}  // namespace dcdatalog
