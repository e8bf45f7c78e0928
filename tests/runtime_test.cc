// Unit tests for src/runtime: expression evaluation, the recursive-table
// merge semantics (§6.2.1) and the Distributor (§5.2.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/distributor.h"
#include "runtime/expr_eval.h"
#include "runtime/recursive_table.h"

namespace dcdatalog {
namespace {

CompiledExpr Const(int64_t v) {
  CompiledExpr e;
  e.op = ExprOp::kConst;
  e.const_word = WordFromInt(v);
  e.type = ColumnType::kInt;
  return e;
}

CompiledExpr ConstD(double v) {
  CompiledExpr e;
  e.op = ExprOp::kConst;
  e.const_word = WordFromDouble(v);
  e.type = ColumnType::kDouble;
  return e;
}

CompiledExpr Reg(int r, ColumnType t = ColumnType::kInt) {
  CompiledExpr e;
  e.op = ExprOp::kVar;
  e.reg = r;
  e.type = t;
  return e;
}

CompiledExpr Bin(ExprOp op, CompiledExpr l, CompiledExpr r) {
  CompiledExpr e;
  e.op = op;
  e.type = (l.type == ColumnType::kDouble || r.type == ColumnType::kDouble)
               ? ColumnType::kDouble
               : ColumnType::kInt;
  e.lhs = std::make_unique<CompiledExpr>(std::move(l));
  e.rhs = std::make_unique<CompiledExpr>(std::move(r));
  return e;
}

// The expression cases run the batch executor's evaluator on one lane of
// stride-1 banks, i.e. a plain register array.
uint64_t Eval(const CompiledExpr& e, const uint64_t* regs) {
  return EvalExprLane(e, regs, 1, 0);
}

bool Compare(CmpOp op, const CompiledExpr& l, const CompiledExpr& r,
             const uint64_t* regs) {
  return EvalCompareLane(op, l, r, regs, 1, 0);
}

TEST(ExprEvalTest, IntegerArithmetic) {
  uint64_t regs[2] = {WordFromInt(7), WordFromInt(3)};
  EXPECT_EQ(IntFromWord(Eval(Bin(ExprOp::kAdd, Reg(0), Reg(1)), regs)),
            10);
  EXPECT_EQ(IntFromWord(Eval(Bin(ExprOp::kSub, Reg(0), Reg(1)), regs)),
            4);
  EXPECT_EQ(IntFromWord(Eval(Bin(ExprOp::kMul, Reg(0), Reg(1)), regs)),
            21);
  EXPECT_EQ(IntFromWord(Eval(Bin(ExprOp::kDiv, Reg(0), Reg(1)), regs)),
            2);  // Integer division.
  EXPECT_EQ(IntFromWord(Eval(Bin(ExprOp::kDiv, Reg(0), Const(0)), regs)),
            0);  // Total semantics for division by zero.
}

TEST(ExprEvalTest, MixedPromotesToDouble) {
  uint64_t regs[1] = {WordFromInt(7)};
  CompiledExpr e = Bin(ExprOp::kDiv, Reg(0), ConstD(2.0));
  EXPECT_EQ(e.type, ColumnType::kDouble);
  EXPECT_DOUBLE_EQ(DoubleFromWord(Eval(e, regs)), 3.5);
}

TEST(ExprEvalTest, ToDoubleConversion) {
  CompiledExpr conv;
  conv.op = ExprOp::kToDouble;
  conv.type = ColumnType::kDouble;
  conv.lhs = std::make_unique<CompiledExpr>(Const(5));
  EXPECT_DOUBLE_EQ(DoubleFromWord(Eval(conv, nullptr)), 5.0);
}

TEST(ExprEvalTest, Negation) {
  uint64_t regs[1] = {WordFromInt(4)};
  CompiledExpr neg;
  neg.op = ExprOp::kNeg;
  neg.type = ColumnType::kInt;
  neg.lhs = std::make_unique<CompiledExpr>(Reg(0));
  EXPECT_EQ(IntFromWord(Eval(neg, regs)), -4);
}

TEST(ExprEvalTest, Comparisons) {
  uint64_t regs[2] = {WordFromInt(3), WordFromDouble(3.0)};
  EXPECT_TRUE(Compare(CmpOp::kEq, Reg(0), Reg(1, ColumnType::kDouble), regs));
  EXPECT_TRUE(Compare(CmpOp::kLe, Reg(0), Const(3), regs));
  EXPECT_FALSE(Compare(CmpOp::kLt, Reg(0), Const(3), regs));
  EXPECT_TRUE(Compare(CmpOp::kNe, Reg(0), Const(4), regs));
  EXPECT_TRUE(Compare(CmpOp::kGe, Const(-1), Const(-2), regs));
}

// --- RecursiveTable ------------------------------------------------------

AggSpec SpecFor(AggFunc func, uint32_t stored_arity,
                ColumnType value_type = ColumnType::kInt) {
  AggSpec s;
  s.func = func;
  s.stored_arity = stored_arity;
  if (func == AggFunc::kNone) {
    s.group_arity = stored_arity;
    s.wire_arity = stored_arity;
  } else {
    s.group_arity = stored_arity - 1;
    s.wire_arity = stored_arity + (func == AggFunc::kSum ? 1 : 0);
    s.value_type = value_type;
  }
  return s;
}

TEST(RecursiveTableTest, NoneDeduplicates) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch = {{1, 2}, {1, 2}, {3, 4}, {1, 2}};
  t.MergeBatch(batch);
  EXPECT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.delta_size(), 2u);
  t.ClearDelta();
  std::vector<TupleBuf> batch2 = {{3, 4}, {5, 6}};
  t.MergeBatch(batch2);
  EXPECT_EQ(t.rows().size(), 3u);
  EXPECT_EQ(t.delta_size(), 1u);
}

TEST(RecursiveTableTest, NoneDeltaHoldsAppendedIdsInOrder) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch = {{5, 6}, {1, 2}, {5, 6}, {3, 4}};
  t.MergeBatch(batch);
  ASSERT_EQ(t.delta(), (std::vector<uint32_t>{0, 1, 2}));
  const std::vector<std::vector<uint64_t>> want = {{5, 6}, {1, 2}, {3, 4}};
  for (size_t i = 0; i < want.size(); ++i) {
    const TupleRef row = t.rows().Row(t.delta()[i]);
    EXPECT_EQ(std::vector<uint64_t>(row.data, row.data + row.arity), want[i]);
  }
  std::vector<TupleBuf> batch2 = {{1, 2}, {7, 8}};
  t.MergeBatch(batch2);
  EXPECT_EQ(t.delta(), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(t.rows().Row(t.delta()[3])[0], 7u);
}

TEST(RecursiveTableTest, GroupBetteredTwiceReadsLatestValue) {
  // A group bettered in two separate merges enters the delta once per
  // merge, and both entries name the same row, which holds the newer value.
  for (AggFunc func : {AggFunc::kMin, AggFunc::kMax}) {
    SCOPED_TRACE(static_cast<int>(func));
    RecursiveTable t("r", Schema::Ints(2), SpecFor(func, 2), 0, false,
                     EngineOptions());
    const int64_t first = 9;
    const int64_t second = func == AggFunc::kMin ? 4 : 12;
    std::vector<TupleBuf> b1 = {{1, WordFromInt(first)}};
    t.MergeBatch(b1);
    std::vector<TupleBuf> b2 = {{1, WordFromInt(second)}};
    t.MergeBatch(b2);
    ASSERT_EQ(t.delta(), (std::vector<uint32_t>{0, 0}));
    for (const uint32_t id : t.delta()) {
      EXPECT_EQ(IntFromWord(t.rows().Row(id)[1]), second);
    }
  }
}

TEST(RecursiveTableTest, RemoveRowsClearsDelta) {
  for (AggFunc func : {AggFunc::kNone, AggFunc::kMin}) {
    SCOPED_TRACE(static_cast<int>(func));
    RecursiveTable t("r", Schema::Ints(2), SpecFor(func, 2), 0, false,
                     EngineOptions());
    std::vector<TupleBuf> batch = {{1, 2}, {3, 4}, {5, 6}};
    t.MergeBatch(batch);
    ASSERT_EQ(t.delta_size(), 3u);
    // Removing row 0 moves row 2 into its place: a pending id 2 would name
    // no row at all.
    t.RemoveRows({0});
    EXPECT_EQ(t.delta_size(), 0u);
    EXPECT_TRUE(t.CheckIndexes().ok());
    std::vector<TupleBuf> more = {{7, 8}};
    t.MergeBatch(more);
    ASSERT_EQ(t.delta(), (std::vector<uint32_t>{2}));
    EXPECT_EQ(t.rows().Row(2)[0], 7u);
  }
}

TEST(RecursiveTableTest, TakeDeltaKeepsBothCapacities) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch = {{1, 2}, {3, 4}, {5, 6}};
  t.MergeBatch(batch);
  const uint32_t* delta_buf = t.delta().data();
  const size_t delta_cap = t.delta().capacity();
  std::vector<uint32_t> out = {42};
  out.reserve(100);
  const uint32_t* out_buf = out.data();
  const size_t out_cap = out.capacity();

  t.TakeDelta(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(out.data(), delta_buf);
  EXPECT_EQ(out.capacity(), delta_cap);
  EXPECT_TRUE(t.delta().empty());
  EXPECT_EQ(t.delta().data(), out_buf);
  EXPECT_EQ(t.delta().capacity(), out_cap);

  // Swapping back hands each buffer to its first owner, still allocation
  // free while the delta fits.
  std::vector<TupleBuf> batch2 = {{7, 8}};
  t.MergeBatch(batch2);
  EXPECT_EQ(t.delta().data(), out_buf);
  t.TakeDelta(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3}));
  EXPECT_EQ(out.data(), out_buf);
  EXPECT_EQ(t.delta().data(), delta_buf);
}

TEST(RecursiveTableTest, SnapshotIdsSurviveRowReallocation) {
  // A local iteration walks a taken snapshot while backpressure gathers
  // keep merging into the same table. Ids taken before those merges must
  // name the same rows after the row storage moved.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch = {{10, 11}, {12, 13}, {14, 15}};
  t.MergeBatch(batch);
  std::vector<uint32_t> snapshot;
  t.TakeDelta(&snapshot);
  const uint64_t* before = t.rows().raw().data();
  std::vector<TupleBuf> growth;
  for (uint64_t i = 0; i < 5000; ++i) growth.push_back({100 + i, i});
  t.MergeBatch(growth);
  ASSERT_NE(t.rows().raw().data(), before) << "rows did not reallocate";
  ASSERT_EQ(snapshot, (std::vector<uint32_t>{0, 1, 2}));
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(t.rows().Row(snapshot[i])[0], batch[i].v[0]);
    EXPECT_EQ(t.rows().Row(snapshot[i])[1], batch[i].v[1]);
  }
  EXPECT_EQ(t.delta_size(), growth.size());
}

TEST(RecursiveTableTest, MinKeepsBestAndUpdatesInPlace) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kMin, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch = {{1, WordFromInt(9)}, {2, WordFromInt(4)}};
  t.MergeBatch(batch);
  EXPECT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.delta_size(), 2u);
  t.ClearDelta();
  // Worse value ignored; better value updates the same row.
  std::vector<TupleBuf> batch2 = {{1, WordFromInt(12)},
                                  {1, WordFromInt(3)},
                                  {2, WordFromInt(4)}};
  t.MergeBatch(batch2);
  EXPECT_EQ(t.rows().size(), 2u);
  ASSERT_EQ(t.delta_size(), 1u);
  EXPECT_EQ(IntFromWord(t.rows().Row(t.delta()[0])[1]), 3);
  // Stored row reflects the best.
  bool found = false;
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    if (t.rows().Row(r)[0] == 1) {
      found = true;
      EXPECT_EQ(IntFromWord(t.rows().Row(r)[1]), 3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RecursiveTableTest, BatchDeltaIsPerGroup) {
  // m updates to one group in a batch must yield one delta row (the final
  // value), not m rows — the amplification guard.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kMin, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch;
  for (int i = 20; i >= 1; --i) {
    batch.push_back({7, WordFromInt(i)});
  }
  t.MergeBatch(batch);
  ASSERT_EQ(t.delta_size(), 1u);
  EXPECT_EQ(IntFromWord(t.rows().Row(t.delta()[0])[1]), 1);
}

TEST(RecursiveTableTest, MaxMirrorsMin) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kMax, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> b1 = {{1, WordFromInt(5)}};
  t.MergeBatch(b1);
  t.ClearDelta();
  std::vector<TupleBuf> b2 = {{1, WordFromInt(3)}};
  t.MergeBatch(b2);
  EXPECT_EQ(t.delta_size(), 0u);
  std::vector<TupleBuf> b3 = {{1, WordFromInt(8)}};
  t.MergeBatch(b3);
  ASSERT_EQ(t.delta_size(), 1u);
  EXPECT_EQ(IntFromWord(t.rows().Row(t.delta()[0])[1]), 8);
}

TEST(RecursiveTableTest, MinDoubleValues) {
  RecursiveTable t("r",
                   Schema({{"g", ColumnType::kInt},
                           {"v", ColumnType::kDouble}}),
                   SpecFor(AggFunc::kMin, 2, ColumnType::kDouble), 0, false,
                   EngineOptions());
  std::vector<TupleBuf> b = {{1, WordFromDouble(2.5)},
                             {1, WordFromDouble(2.25)}};
  t.MergeBatch(b);
  bool ok = false;
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    ok |= DoubleFromWord(t.rows().Row(r)[1]) == 2.25;
  }
  EXPECT_TRUE(ok);
}

TEST(RecursiveTableTest, ZeroGroupMinKeepsOneRow) {
  // m(min<Y>): no group columns, so every wire belongs to the one group and
  // column 0 is the value itself. A later batch whose best differs from
  // the stored value must update that row, not append a second one.
  RecursiveTable t("m", Schema::Ints(1), SpecFor(AggFunc::kMin, 1), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> b1 = {{WordFromInt(5)}};
  t.MergeBatch(b1);
  std::vector<TupleBuf> b2 = {{WordFromInt(3)}, {WordFromInt(7)}};
  t.MergeBatch(b2);
  ASSERT_EQ(t.rows().size(), 1u);
  EXPECT_EQ(IntFromWord(t.rows().Row(0)[0]), 3);
}

TEST(RecursiveTableTest, TwoColumnGroupKeys) {
  // APSP-style: group (A, B), value D.
  RecursiveTable t("path", Schema::Ints(3), SpecFor(AggFunc::kMin, 3), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> b = {{1, 2, WordFromInt(10)},
                             {1, 3, WordFromInt(10)},
                             {1, 2, WordFromInt(7)}};
  t.MergeBatch(b);
  EXPECT_EQ(t.rows().size(), 2u);
  std::map<std::pair<uint64_t, uint64_t>, int64_t> got;
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    TupleRef row = t.rows().Row(r);
    got[{row[0], row[1]}] = IntFromWord(row[2]);
  }
  EXPECT_EQ((got[{1, 2}]), 7);
  EXPECT_EQ((got[{1, 3}]), 10);
}

TEST(RecursiveTableTest, CountDistinctContributors) {
  RecursiveTable t("cnt", Schema::Ints(2), SpecFor(AggFunc::kCount, 2), 0,
                   false, EngineOptions());
  // Wire: (group, contributor).
  std::vector<TupleBuf> b = {{1, 100}, {1, 101}, {1, 100}, {2, 100}};
  t.MergeBatch(b);
  std::map<uint64_t, int64_t> counts;
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    counts[t.rows().Row(r)[0]] = IntFromWord(t.rows().Row(r)[1]);
  }
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  t.ClearDelta();
  std::vector<TupleBuf> b2 = {{1, 101}};
  t.MergeBatch(b2);
  EXPECT_EQ(t.delta_size(), 0u);  // Known contributor: no change.
}

TEST(RecursiveTableTest, SumReplacesContributorValue) {
  RecursiveTable t("rank",
                   Schema({{"g", ColumnType::kInt},
                           {"v", ColumnType::kDouble}}),
                   SpecFor(AggFunc::kSum, 2, ColumnType::kDouble), 0, false,
                   EngineOptions());
  // Wire: (group, contributor, value).
  std::vector<TupleBuf> b = {{1, 7, WordFromDouble(0.5)},
                             {1, 8, WordFromDouble(0.25)}};
  t.MergeBatch(b);
  ASSERT_EQ(t.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(DoubleFromWord(t.rows().Row(0)[1]), 0.75);
  t.ClearDelta();
  // Contributor 7 revises its value: sum moves by the difference.
  std::vector<TupleBuf> b2 = {{1, 7, WordFromDouble(0.1)}};
  t.MergeBatch(b2);
  EXPECT_DOUBLE_EQ(DoubleFromWord(t.rows().Row(0)[1]), 0.35);
  ASSERT_EQ(t.delta_size(), 1u);
  t.ClearDelta();
  // Epsilon-sized change is absorbed.
  std::vector<TupleBuf> b3 = {{1, 7, WordFromDouble(0.1 + 1e-12)}};
  t.MergeBatch(b3);
  EXPECT_EQ(t.delta_size(), 0u);
}

TEST(RecursiveTableTest, JoinIndexTracksAppendedRows) {
  RecursiveTable t("path", Schema::Ints(3), SpecFor(AggFunc::kMin, 3), 1,
                   /*needs_join_index=*/true, EngineOptions());
  std::vector<TupleBuf> b = {{1, 5, WordFromInt(3)},
                             {2, 5, WordFromInt(4)},
                             {3, 6, WordFromInt(1)}};
  t.MergeBatch(b);
  std::set<uint64_t> srcs;
  t.ForEachJoinMatch(5, [&](TupleRef row) { srcs.insert(row[0]); });
  EXPECT_EQ(srcs, (std::set<uint64_t>{1, 2}));
}

TEST(RecursiveTableTest, RandomizedMinParityWithOracle) {
  // Property test: arbitrary interleavings of batches must leave the table
  // equal to a simple map oracle.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kMin, 2), 0,
                   false, EngineOptions());
  std::map<uint64_t, int64_t> oracle;
  Rng rng(321);
  for (int batch_no = 0; batch_no < 50; ++batch_no) {
    std::vector<TupleBuf> batch;
    for (int i = 0; i < 40; ++i) {
      uint64_t g = rng.Uniform(25);
      int64_t v = static_cast<int64_t>(rng.Uniform(1000));
      batch.push_back({g, WordFromInt(v)});
      auto [it, inserted] = oracle.try_emplace(g, v);
      if (!inserted && v < it->second) it->second = v;
    }
    t.MergeBatch(batch);
  }
  ASSERT_EQ(t.rows().size(), oracle.size());
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    TupleRef row = t.rows().Row(r);
    EXPECT_EQ(IntFromWord(row[1]), oracle.at(row[0]));
  }
}

TEST(RecursiveTableTest, StridedMergeMatchesTupleBufAdapter) {
  // The gather path merges wires packed densely at the wire arity; tests
  // and benches merge one TupleBuf per wire. Both forms must leave the
  // table in the same state after every batch, empty batches included.
  struct Case {
    AggSpec spec;
    Schema schema;
  };
  const Schema int_double(
      {{"g", ColumnType::kInt}, {"v", ColumnType::kDouble}});
  const std::vector<Case> cases = {
      {SpecFor(AggFunc::kNone, 2), Schema::Ints(2)},
      {SpecFor(AggFunc::kMin, 2), Schema::Ints(2)},
      {SpecFor(AggFunc::kCount, 2), Schema::Ints(2)},
      {SpecFor(AggFunc::kSum, 2, ColumnType::kDouble), int_double},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.spec.func));
    RecursiveTable dense("r", c.schema, c.spec, 0, false, EngineOptions());
    RecursiveTable boxed("r", c.schema, c.spec, 0, false, EngineOptions());
    const uint32_t arity = c.spec.wire_arity;
    Rng rng(31);
    for (size_t n : std::vector<size_t>{0, 1, 17, 40, 0, 25}) {
      std::vector<uint64_t> words;
      std::vector<TupleBuf> bufs;
      for (size_t i = 0; i < n; ++i) {
        uint64_t w[3] = {rng.Uniform(8), rng.Uniform(8), 0};
        if (c.spec.func == AggFunc::kMin) w[1] = WordFromInt(rng.Uniform(50));
        if (c.spec.func == AggFunc::kSum) {
          w[2] = WordFromDouble(static_cast<double>(rng.Uniform(16)) * 0.25);
        }
        words.insert(words.end(), w, w + arity);
        bufs.push_back(TupleBuf::FromWords(w, arity));
      }
      dense.MergeBatch(words.data(), n, arity);
      boxed.MergeBatch(bufs);
      ASSERT_EQ(dense.accepts(), boxed.accepts());
      ASSERT_EQ(dense.merges(), boxed.merges());
      const uint32_t stored = c.spec.stored_arity;
      ASSERT_EQ(dense.rows().size(), boxed.rows().size());
      for (uint64_t r = 0; r < dense.rows().size(); ++r) {
        for (uint32_t col = 0; col < stored; ++col) {
          ASSERT_EQ(dense.rows().Row(r)[col], boxed.rows().Row(r)[col]);
        }
      }
      ASSERT_EQ(dense.delta_size(), boxed.delta_size());
      for (size_t d = 0; d < dense.delta_size(); ++d) {
        ASSERT_EQ(dense.delta()[d], boxed.delta()[d]);
        for (uint32_t col = 0; col < stored; ++col) {
          ASSERT_EQ(dense.rows().Row(dense.delta()[d])[col],
                    boxed.rows().Row(boxed.delta()[d])[col]);
        }
      }
      dense.ClearDelta();
      boxed.ClearDelta();
    }
    EXPECT_GT(dense.rows().size(), 0u);
  }
}

TEST(RecursiveTableTest, NoneGrowsAcrossLoadBoundaryMidBatch) {
  // One MergeBatch large enough to push the flat existence set across its
  // 60% growth boundary several times mid-batch (64 initial slots → growth
  // at 39, 77, ... entries). In-flight prefetches at the rehash point go
  // stale; dedup must not. Duplicates are interleaved so probes land both
  // before and after each rehash.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch;
  std::set<std::pair<uint64_t, uint64_t>> oracle;
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    uint64_t a = rng.Uniform(40);
    uint64_t b = rng.Uniform(40);  // 1600-pair universe: dense duplicates.
    batch.push_back({a, b});
    oracle.insert({a, b});
  }
  t.MergeBatch(batch);
  ASSERT_EQ(t.rows().size(), oracle.size());
  EXPECT_EQ(t.delta_size(), oracle.size());
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    TupleRef row = t.rows().Row(r);
    ASSERT_TRUE(oracle.count({row[0], row[1]}));
  }
  // Re-merging the same batch accepts nothing.
  t.ClearDelta();
  t.MergeBatch(batch);
  EXPECT_EQ(t.rows().size(), oracle.size());
  EXPECT_EQ(t.delta_size(), 0u);
}

TEST(RecursiveTableTest, MinInPlaceUpdateStaysCoherent) {
  // A min update rewrites the stored row in place. The group index must
  // keep naming that row, so the table neither drops nor resurrects values
  // afterwards: revisit the same group with worse, equal, and better values
  // after each in-place rewrite.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kMin, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> b1 = {{1, WordFromInt(50)}};
  t.MergeBatch(b1);
  t.ClearDelta();
  for (int64_t v : {40, 40, 45, 30, 50, 30, 20}) {
    std::vector<TupleBuf> b = {{1, WordFromInt(v)}};
    t.MergeBatch(b);
  }
  ASSERT_EQ(t.rows().size(), 1u);
  EXPECT_EQ(IntFromWord(t.rows().Row(0)[1]), 20);
  // The delta stream, deduped per batch, must never have gone backwards.
  t.ClearDelta();
  std::vector<TupleBuf> worse = {{1, WordFromInt(21)}};
  t.MergeBatch(worse);
  EXPECT_EQ(t.delta_size(), 0u);
}

TEST(RecursiveTableTest, ProbeCmpsCounterAdvances) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    batch.push_back({rng.Uniform(30), rng.Uniform(30)});
  }
  t.MergeBatch(batch);
  // Dense duplicates guarantee occupied-slot comparisons: every duplicate
  // arrival compares against the stored tuple, so the count is nonzero.
  EXPECT_GT(t.merge_probe_cmps(), 0u);
}

TEST(RecursiveTableTest, FindRowIdLeavesProbeCmpsAlone) {
  // Deletion lookups are not merges: they must not inflate the merge
  // counter, and concurrent Backward/Forward shards must not race on it.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> batch;
  for (uint64_t i = 0; i < 500; ++i) batch.push_back({i % 17, i % 29});
  t.MergeBatch(batch);
  const uint64_t cmps = t.merge_probe_cmps();
  for (uint64_t r = 0; r < t.rows().size(); ++r) {
    EXPECT_EQ(t.FindRowId(t.rows().Row(r)), r);
  }
  const TupleBuf absent{100, 100};
  EXPECT_EQ(t.FindRowId(TupleRef{absent.v, 2}), UINT64_MAX);
  EXPECT_EQ(t.merge_probe_cmps(), cmps);
}

TEST(RecursiveTableTest, ChangeLogListsRowsChangedInPlace) {
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kMin, 2), 0,
                   false, EngineOptions());
  std::vector<TupleBuf> b1 = {
      {1, WordFromInt(9)}, {2, WordFromInt(4)}, {3, WordFromInt(5)}};
  t.MergeBatch(b1);
  EXPECT_TRUE(t.TakeChangedRows().empty());  // No log started yet.
  const auto row_of = [&t](uint64_t group) {
    for (uint64_t r = 0; r < t.rows().size(); ++r) {
      if (t.rows().Row(r)[0] == group) return r;
    }
    return UINT64_MAX;
  };

  t.StartChangeLog();
  // Group 3 improves twice, group 2 not at all, group 4 is new; group 1
  // improves through the single-wire path.
  std::vector<TupleBuf> b2 = {{3, WordFromInt(2)},
                              {2, WordFromInt(8)},
                              {4, WordFromInt(1)},
                              {3, WordFromInt(1)}};
  t.MergeBatch(b2);
  const TupleBuf lower{1, WordFromInt(0)};
  EXPECT_TRUE(t.MergeWire(lower.v));
  std::vector<uint64_t> expect = {row_of(1), row_of(3)};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(t.TakeChangedRows(), expect);
  EXPECT_EQ(t.rows().size(), 4u);
  EXPECT_TRUE(t.TakeChangedRows().empty());
}

TEST(RecursiveTableTest, MergesCountEveryArrivalAcceptsOnlyTheFirst) {
  // merges() counts every arrival of a tuple — repeats within one batch,
  // across batches and through the single-wire path alike — and accepts()
  // only the first.
  RecursiveTable t("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), 0,
                   false, EngineOptions());
  const TupleBuf a{1, 2};
  const TupleBuf b{3, 4};
  const TupleBuf c{5, 6};

  std::vector<TupleBuf> b1 = {a};
  t.MergeBatch(b1);
  std::vector<TupleBuf> b2 = {a, a, a};
  t.MergeBatch(b2);
  EXPECT_EQ(t.merges(), 4u);
  EXPECT_EQ(t.accepts(), 1u);
  EXPECT_EQ(t.rows().size(), 1u);

  std::vector<TupleBuf> b3 = {b, a, b};
  t.MergeBatch(b3);
  EXPECT_TRUE(t.MergeWire(c.v));
  EXPECT_FALSE(t.MergeWire(b.v));
  EXPECT_EQ(t.merges(), 9u);
  EXPECT_EQ(t.accepts(), 3u);
  EXPECT_EQ(t.rows().size(), 3u);
}

// --- BaseIndexSet ----------------------------------------------------------

TEST(BaseIndexSetTest, FindEqualRowsProbesOnlyItsOwnRelation) {
  Catalog catalog;
  Relation arc("arc", Schema::Ints(2));
  for (const auto& [a, b] : std::vector<std::pair<uint64_t, uint64_t>>{
           {1, 2}, {1, 3}, {1, 2}, {4, 2}}) {
    arc.Append({a, b});
  }
  catalog.Put(std::move(arc));
  Relation* rel = catalog.Find("arc");
  BaseIndexSet indexes({BaseIndexReq{"arc", 0}});
  std::vector<uint64_t> ids;
  const uint64_t one_two[] = {1, 2};
  const TupleRef row{one_two, 2};
  const auto sorted = [&ids] {
    std::vector<uint64_t> out = ids;
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_FALSE(indexes.FindEqualRows(0, *rel, row, &ids));  // Unbuilt.
  EXPECT_TRUE(ids.empty());
  ASSERT_TRUE(indexes.EnsureBuilt(0, catalog).ok());
  ASSERT_TRUE(indexes.FindEqualRows(0, *rel, row, &ids));
  EXPECT_EQ(sorted(), (std::vector<uint64_t>{0, 2}));
  // Rows appended since the build are scanned, not missed.
  rel->Append({1, 2});
  ids.clear();
  ASSERT_TRUE(indexes.FindEqualRows(0, *rel, row, &ids));
  EXPECT_EQ(sorted(), (std::vector<uint64_t>{0, 2, 4}));
  const Relation other = *rel;
  ids.clear();
  EXPECT_FALSE(indexes.FindEqualRows(0, other, row, &ids));
  EXPECT_TRUE(ids.empty());
}

// --- Removal by fill from the tail: property tests -----------------------
// RecursiveTable::RemoveRows and BaseIndexSet::RemoveRows patch their
// indexes in place; each test compares the result with a fresh build over
// the survivors (storage_test covers the structures one by one).

/// Ascending distinct ids below `n`: a random share, only the tail row, or
/// every row, by `shape`.
std::vector<uint64_t> PickRows(Rng& rng, uint64_t n, uint64_t shape) {
  std::vector<uint64_t> ids;
  const uint64_t share = shape % 3 == 0 ? 1 + rng.Uniform(60) : 0;
  for (uint64_t r = 0; r < n; ++r) {
    if ((shape % 3 == 1 && r + 1 == n) || shape % 3 == 2 ||
        rng.Uniform(100) < share) {
      ids.push_back(r);
    }
  }
  return ids;
}

/// Sorted contents of the rows `for_each` visits.
template <typename ForEach>
std::vector<std::vector<uint64_t>> SortedRows(ForEach&& for_each) {
  std::vector<std::vector<uint64_t>> out;
  for_each([&out](TupleRef row) {
    out.emplace_back(row.data, row.data + row.arity);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RemoveRowsTest, NoneReplicasEqualAFreshMerge) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Two replicas of one predicate, partitioned and join-indexed on
    // column 0 and on column 1, hold the same tuples; key 0 is a hub.
    std::vector<TupleBuf> batch;
    const uint64_t n = rng.Uniform(200);
    for (uint64_t i = 0; i < n; ++i) {
      batch.push_back({rng.Uniform(2) == 0 ? 0 : rng.Uniform(10),
                       rng.Uniform(10)});
    }
    std::vector<std::unique_ptr<RecursiveTable>> reps;
    for (uint32_t col : {0u, 1u}) {
      reps.push_back(std::make_unique<RecursiveTable>(
          "r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2), col,
          /*needs_join_index=*/true, EngineOptions()));
      reps.back()->MergeBatch(batch);
    }
    const Relation& stored = reps[0]->rows();
    std::vector<std::vector<uint64_t>> gone;
    for (uint64_t r : PickRows(rng, stored.size(), seed)) {
      gone.emplace_back(stored.Row(r).data, stored.Row(r).data + 2);
    }
    for (auto& rep : reps) {
      std::vector<uint64_t> ids;
      for (const auto& row : gone) {
        ids.push_back(rep->FindRowId({row.data(), 2}));
      }
      std::sort(ids.begin(), ids.end());
      rep->RemoveRows(ids);
      ASSERT_TRUE(rep->CheckIndexes().ok()) << rep->CheckIndexes().ToString();
      ASSERT_EQ(rep->rows().size(), reps[0]->rows().size());
      for (const auto& row : gone) {
        EXPECT_EQ(rep->FindRowId({row.data(), 2}), UINT64_MAX);
      }
      // A fresh merge of the survivors, in their new order.
      RecursiveTable fresh("r", Schema::Ints(2), SpecFor(AggFunc::kNone, 2),
                           rep->partition_col(), true, EngineOptions());
      std::vector<TupleBuf> survivors;
      for (uint64_t r = 0; r < rep->rows().size(); ++r) {
        survivors.push_back(TupleBuf(rep->rows().Row(r)));
      }
      fresh.MergeBatch(survivors);
      for (uint64_t r = 0; r < rep->rows().size(); ++r) {
        EXPECT_EQ(rep->FindRowId(rep->rows().Row(r)),
                  fresh.FindRowId(rep->rows().Row(r)));
      }
      for (uint64_t k = 0; k < 10; ++k) {
        const auto visit = [k](const RecursiveTable& t) {
          return SortedRows([&](auto&& fn) { t.ForEachJoinMatch(k, fn); });
        };
        EXPECT_EQ(visit(*rep), visit(fresh)) << "key " << k;
      }
    }
  }
}

TEST(RemoveRowsTest, MinMaxKeepsEverySurvivorsRowAndStamp) {
  // Min, max and plain (kNone) tables alike: every row carries a stamp.
  const AggFunc funcs[] = {AggFunc::kMin, AggFunc::kMax, AggFunc::kNone};
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const AggFunc func = funcs[seed % 3];
    const bool none = func == AggFunc::kNone;
    RecursiveTable t("r", Schema::Ints(2), SpecFor(func, 2), 0,
                     /*needs_join_index=*/true, EngineOptions());
    // A row's key: its group, or under kNone the whole tuple.
    const auto key = [none](TupleRef row) {
      return none ? std::vector<uint64_t>{row[0], row[1]}
                  : std::vector<uint64_t>{row[0]};
    };
    const auto find = [&t, none](TupleRef row) {
      return none ? t.FindRowId(row) : t.FindGroupRow(row.data);
    };
    for (uint32_t stamp = 1; stamp <= 5; ++stamp) {
      t.SetMergeStamp(stamp);
      std::vector<TupleBuf> batch;
      for (uint64_t i = rng.Uniform(40); i > 0; --i) {
        batch.push_back(
            {rng.Uniform(60), WordFromInt(rng.UniformRange(-50, 50))});
      }
      t.MergeBatch(batch);
    }
    // Every row's value and stamp before the removal.
    std::map<std::vector<uint64_t>, std::pair<uint64_t, uint32_t>> before;
    for (uint64_t r = 0; r < t.rows().size(); ++r) {
      before[key(t.rows().Row(r))] = {t.rows().Row(r)[1], t.stamp(r)};
    }
    const std::vector<uint64_t> ids = PickRows(rng, t.rows().size(), seed / 3);
    std::set<std::vector<uint64_t>> gone;
    std::vector<TupleBuf> gone_rows;
    for (uint64_t r : ids) {
      gone.insert(key(t.rows().Row(r)));
      gone_rows.push_back(TupleBuf(t.rows().Row(r)));
    }
    t.RemoveRows(ids);
    ASSERT_TRUE(t.CheckIndexes().ok()) << t.CheckIndexes().ToString();
    EXPECT_EQ(t.rows().size(), before.size() - gone.size());
    for (uint64_t r = 0; r < t.rows().size(); ++r) {
      const TupleRef row = t.rows().Row(r);
      EXPECT_EQ(gone.count(key(row)), 0u);
      EXPECT_EQ(find(row), r);
      EXPECT_EQ(row[1], before.at(key(row)).first);
      EXPECT_EQ(t.stamp(r), before.at(key(row)).second);
    }
    for (const TupleBuf& row : gone_rows) {
      EXPECT_EQ(find(TupleRef{row.v, 2}), UINT64_MAX);
    }
    // Merging goes on over the patched indexes: a removed row comes back
    // as a new row with the new stamp, and a min/max survivor improves in
    // place, restamped.
    t.SetMergeStamp(6);
    std::vector<TupleBuf> more = gone_rows;
    if (!none && t.rows().size() > 0) {
      more.push_back({t.rows().Row(0)[0],
                      WordFromInt(func == AggFunc::kMin ? -100 : 100)});
    }
    t.MergeBatch(more);
    EXPECT_TRUE(t.CheckIndexes().ok()) << t.CheckIndexes().ToString();
    EXPECT_EQ(t.rows().size(), before.size());
    for (const TupleBuf& row : more) {
      EXPECT_EQ(t.stamp(find(TupleRef{row.v, 2})), 6u);
    }
  }
}

TEST(RemoveRowsTest, BaseIndexesFollowRemovalsAndRewritesWhileLagging) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Catalog catalog;
    Relation arc("arc", Schema::Ints(2));
    for (uint64_t i = rng.Uniform(150); i > 0; --i) {
      arc.Append({rng.Uniform(2) == 0 ? 0 : rng.Uniform(10), rng.Uniform(10)});
    }
    catalog.Put(std::move(arc));
    Relation* rel = catalog.Find("arc");
    BaseIndexSet indexes({BaseIndexReq{"arc", 0}, BaseIndexReq{"arc", 1}});
    ASSERT_TRUE(indexes.EnsureBuilt(0, catalog).ok());
    ASSERT_TRUE(indexes.EnsureBuilt(1, catalog).ok());
    // Rows appended after the build lag both indexes; the removal must
    // index them first, or a row moved in from the tail is lost.
    for (uint64_t i = rng.Uniform(20); i > 0; --i) {
      rel->Append({rng.Uniform(10), rng.Uniform(10)});
    }
    const std::vector<uint64_t> ids = PickRows(rng, rel->size(), seed);
    indexes.RemoveRows(*rel, ids);
    rel->RemoveRows(ids);
    for (int k = 0; k < 5 && rel->size() > 0; ++k) {
      const uint64_t row = rng.Uniform(rel->size());
      const uint64_t next[] = {rng.Uniform(10), rng.Uniform(10)};
      indexes.RewriteRow(*rel, row, TupleRef{next, 2});
      rel->SetRow(row, TupleRef{next, 2});
    }
    ASSERT_TRUE(indexes.CheckIndexes().ok())
        << indexes.CheckIndexes().ToString();
    BaseIndexSet fresh({BaseIndexReq{"arc", 0}, BaseIndexReq{"arc", 1}});
    ASSERT_TRUE(fresh.EnsureBuilt(0, catalog).ok());
    ASSERT_TRUE(fresh.EnsureBuilt(1, catalog).ok());
    for (int id : {0, 1}) {
      for (uint64_t key = 0; key < 10; ++key) {
        const auto visit = [id, key](const BaseIndexSet& set) {
          return SortedRows(
              [&](auto&& fn) { set.ForEachMatch(id, key, fn); });
        };
        EXPECT_EQ(visit(indexes), visit(fresh)) << id << " key " << key;
      }
    }
    for (uint64_t r = 0; r < rel->size(); ++r) {
      std::vector<uint64_t> found;
      ASSERT_TRUE(indexes.FindEqualRows(0, *rel, rel->Row(r), &found));
      EXPECT_NE(std::find(found.begin(), found.end(), r), found.end());
    }
  }
}

// --- Distributor ---------------------------------------------------------

/// One tuple observed at a sink, with the block metadata it arrived under.
struct SunkTuple {
  uint32_t dest;
  uint32_t tag;
  std::vector<uint64_t> words;
};

class DistributorTest : public ::testing::Test {
 protected:
  DistributorTest() {
    scc_.derived_preds.push_back("p");
    scc_.replicas.push_back(ReplicaSpec{"p", 0, false});
    scc_.replicas.push_back(ReplicaSpec{"p", 1, true});
    head_.predicate = "p";
    head_.pred_id = 0;
    head_.agg = SpecFor(AggFunc::kMin, 3);
  }

  /// Sink that unpacks every block into `sent_` and counts blocks. The
  /// production sinks are {function pointer, context} pairs, so the
  /// fixture passes a static thunk over `this`.
  Distributor::BlockSink Unpack() {
    return Distributor::BlockSink{&DistributorTest::UnpackThunk, this};
  }

  static void UnpackThunk(void* ctx, uint32_t dest, const MsgBlock& block) {
    auto* self = static_cast<DistributorTest*>(ctx);
    ++self->blocks_;
    for (uint32_t t = 0; t < block.count; ++t) {
      SunkTuple s;
      s.dest = dest;
      s.tag = block.tag;
      s.words.assign(block.Tuple(t), block.Tuple(t) + block.arity);
      self->sent_.push_back(std::move(s));
    }
  }

  Distributor::SelfLoopSink SelfSink() {
    return Distributor::SelfLoopSink{&DistributorTest::SelfSinkThunk, this};
  }

  static void SelfSinkThunk(void* ctx, uint32_t rid, const uint64_t* wire,
                            uint32_t arity) {
    auto* self = static_cast<DistributorTest*>(ctx);
    SunkTuple s;
    s.dest = kSelf;
    s.tag = rid;
    s.words.assign(wire, wire + arity);
    self->self_sent_.push_back(std::move(s));
  }

  static constexpr uint32_t kSelf = 0xFFFF;

  SccPlan scc_;
  HeadSpec head_;
  std::vector<SunkTuple> sent_;
  std::vector<SunkTuple> self_sent_;
  uint64_t blocks_ = 0;
};

TEST_F(DistributorTest, RoutesToEveryReplicaByItsColumn) {
  // self_worker 4 is outside the partition range, so nothing self-loops.
  Distributor dist(&scc_, /*num_workers=*/4, /*self_worker=*/4,
                   Unpack(), SelfSink());
  uint64_t wire[3] = {11, 22, WordFromInt(5)};
  dist.EmitBatch(head_, wire, 1, 3);
  EXPECT_TRUE(sent_.empty());  // Staged until flush (or a full block).
  dist.Flush();
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_TRUE(self_sent_.empty());
  // One tuple per replica, routed by that replica's partition column and
  // tagged with its replica id. Flush order is dest-major, so match by tag.
  for (const SunkTuple& s : sent_) {
    if (s.tag == 0) {
      EXPECT_EQ(s.dest, PartitionOf(11, 4));
    } else {
      EXPECT_EQ(s.tag, 1u);
      EXPECT_EQ(s.dest, PartitionOf(22, 4));
    }
    EXPECT_EQ(s.words.size(), 3u);  // Dense wire arity, not a fixed line.
    EXPECT_EQ(s.words[0], 11u);
    EXPECT_EQ(s.words[1], 22u);
  }
}

TEST_F(DistributorTest, PartialAggregationFoldsPerGroup) {
  Distributor dist(&scc_, 4, /*self_worker=*/4, Unpack(), SelfSink());
  uint64_t w1[3] = {1, 2, WordFromInt(9)};
  uint64_t w2[3] = {1, 2, WordFromInt(4)};
  uint64_t w3[3] = {1, 2, WordFromInt(6)};
  dist.EmitBatch(head_, w1, 1, 3);
  dist.EmitBatch(head_, w2, 1, 3);
  dist.EmitBatch(head_, w3, 1, 3);
  EXPECT_TRUE(sent_.empty());  // Buffered until flush.
  dist.Flush();
  // One group → one wire (per replica), carrying the minimum.
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(IntFromWord(sent_[0].words[2]), 4);
  EXPECT_EQ(IntFromWord(sent_[1].words[2]), 4);
  EXPECT_EQ(dist.tuples_folded(), 2u);
  EXPECT_EQ(dist.tuples_routed(), 2u);
}

TEST_F(DistributorTest, FoldDoesNotSpanFlush) {
  // The fold map clears at every Flush: a group's worse value in the next
  // iteration still ships, because nothing from the last one survives.
  Distributor dist(&scc_, 4, /*self_worker=*/4, Unpack(), SelfSink());
  uint64_t w1[3] = {1, 2, WordFromInt(4)};
  dist.EmitBatch(head_, w1, 1, 3);
  dist.Flush();
  ASSERT_EQ(sent_.size(), 2u);  // One wire per replica.
  sent_.clear();
  uint64_t w2[3] = {1, 2, WordFromInt(9)};
  dist.EmitBatch(head_, w2, 1, 3);
  dist.Flush();
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(IntFromWord(sent_[0].words[2]), 9);
  EXPECT_EQ(IntFromWord(sent_[1].words[2]), 9);
  EXPECT_EQ(dist.tuples_folded(), 0u);
}

TEST_F(DistributorTest, EmitBatchFoldsLikePerTupleEmit) {
  // 300 tuples over 150 groups: the fold map outgrows its initial slots
  // mid-batch, so the batch form's prefetch-ahead runs across a rehash.
  // The per-tuple run emits batches of one, which never prefetch.
  std::vector<uint64_t> wires;
  std::map<std::pair<uint64_t, uint64_t>, int64_t> best;
  Rng rng(5);
  for (uint64_t i = 0; i < 300; ++i) {
    const uint64_t g = i % 150;
    const int64_t v = static_cast<int64_t>(rng.Uniform(1000));
    wires.insert(wires.end(), {g, g + 7, WordFromInt(v)});
    auto [it, fresh] = best.try_emplace({g, g + 7}, v);
    if (!fresh) it->second = std::min(it->second, v);
  }
  using Shipped = std::tuple<uint32_t, uint32_t, std::vector<uint64_t>>;
  auto run = [&](bool batched) {
    sent_.clear();
    Distributor dist(&scc_, 4, /*self_worker=*/4, Unpack(), SelfSink());
    if (batched) {
      dist.EmitBatch(head_, wires.data(), 300, 3);
    } else {
      for (size_t off = 0; off < wires.size(); off += 3) {
        dist.EmitBatch(head_, wires.data() + off, 1, 3);
      }
    }
    dist.Flush();
    EXPECT_EQ(dist.tuples_folded(), 150u);
    std::vector<Shipped> out;
    for (const SunkTuple& t : sent_) out.emplace_back(t.dest, t.tag, t.words);
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<Shipped> per_tuple = run(false);
  const std::vector<Shipped> batched = run(true);
  EXPECT_EQ(per_tuple, batched);
  // Each group ships once per replica, carrying its minimum.
  ASSERT_EQ(batched.size(), 2 * best.size());
  for (const Shipped& t : batched) {
    const std::vector<uint64_t>& w = std::get<2>(t);
    EXPECT_EQ(IntFromWord(w[2]), (best.at({w[0], w[1]})));
  }
}

TEST_F(DistributorTest, NonAggregateTuplesShipOnFlush) {
  SccPlan scc;
  scc.derived_preds.push_back("q");
  scc.replicas.push_back(ReplicaSpec{"q", 0, false});
  HeadSpec head;
  head.predicate = "q";
  head.pred_id = 0;
  head.agg = SpecFor(AggFunc::kNone, 2);
  Distributor dist(&scc, 4, /*self_worker=*/4, Unpack(), SelfSink());
  uint64_t w[2] = {5, 6};
  dist.EmitBatch(head, w, 1, 2);
  EXPECT_EQ(dist.tuples_routed(), 1u);
  EXPECT_TRUE(sent_.empty());  // Staged in a partial block...
  dist.Flush();
  ASSERT_EQ(sent_.size(), 1u);  // ... which every Flush ships.
  EXPECT_EQ(blocks_, 1u);
  EXPECT_EQ(dist.blocks_sent(), 1u);
}

TEST_F(DistributorTest, FullBlocksShipBeforeFlush) {
  SccPlan scc;
  scc.derived_preds.push_back("q");
  scc.replicas.push_back(ReplicaSpec{"q", 0, false});
  HeadSpec head;
  head.predicate = "q";
  head.pred_id = 0;
  head.agg = SpecFor(AggFunc::kNone, 2);
  // One worker, but emitting from "worker 1" of 1 is impossible — use two
  // workers and only count what lands remotely plus the bypass.
  Distributor dist(&scc, 2, /*self_worker=*/0, Unpack(), SelfSink());
  const uint32_t cap = MsgBlock::CapacityFor(2);
  // Find a key that routes to worker 1 (remote) and emit 2*cap + 3 copies
  // with distinct second columns.
  uint64_t remote_key = 0;
  while (PartitionOf(remote_key, 2) != 1) ++remote_key;
  const uint64_t total = 2 * cap + 3;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t w[2] = {remote_key, i};
    dist.EmitBatch(head, w, 1, 2);
  }
  // Two full blocks shipped eagerly; 3 tuples still staged.
  EXPECT_EQ(blocks_, 2u);
  EXPECT_EQ(sent_.size(), static_cast<size_t>(2 * cap));
  dist.Flush();
  EXPECT_EQ(blocks_, 3u);
  ASSERT_EQ(sent_.size(), total);
  EXPECT_EQ(dist.blocks_sent(), 3u);
  // FIFO within the (dest, replica) stream, dense payloads intact.
  for (uint64_t i = 0; i < total; ++i) {
    EXPECT_EQ(sent_[i].dest, 1u);
    EXPECT_EQ(sent_[i].words[0], remote_key);
    EXPECT_EQ(sent_[i].words[1], i);
  }
}

TEST_F(DistributorTest, SelfLoopBypassSkipsRings) {
  SccPlan scc;
  scc.derived_preds.push_back("q");
  scc.replicas.push_back(ReplicaSpec{"q", 0, false});
  HeadSpec head;
  head.predicate = "q";
  head.pred_id = 0;
  head.agg = SpecFor(AggFunc::kNone, 2);
  Distributor dist(&scc, 4, /*self_worker=*/2, Unpack(), SelfSink());
  uint64_t self_tuples = 0;
  for (uint64_t key = 0; key < 64; ++key) {
    uint64_t w[2] = {key, key + 100};
    dist.EmitBatch(head, w, 1, 2);
    if (PartitionOf(key, 4) == 2) ++self_tuples;
  }
  dist.Flush();
  ASSERT_GT(self_tuples, 0u);
  // Self-partition tuples went through the bypass, everything else through
  // blocks; nothing was lost or duplicated.
  EXPECT_EQ(self_sent_.size(), self_tuples);
  EXPECT_EQ(sent_.size(), 64u - self_tuples);
  EXPECT_EQ(dist.self_loop_tuples(), self_tuples);
  EXPECT_EQ(dist.tuples_routed(), 64u);
  for (const SunkTuple& s : self_sent_) {
    EXPECT_EQ(PartitionOf(s.words[0], 4), 2u);
    EXPECT_EQ(s.tag, 0u);
    EXPECT_EQ(s.words[1], s.words[0] + 100);
  }
  for (const SunkTuple& s : sent_) {
    EXPECT_NE(s.dest, 2u);
    EXPECT_EQ(s.dest, PartitionOf(s.words[0], 4));
  }
}

}  // namespace
}  // namespace dcdatalog
