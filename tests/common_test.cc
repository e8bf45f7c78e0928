// Unit tests for src/common: status, hashing, rng, values, dictionary,
// Welford statistics, options.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/options.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_dict.h"
#include "common/value.h"
#include "common/welford.h"

namespace dcdatalog {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  DCD_ASSIGN_OR_RETURN(int half, Halve(x));
  DCD_ASSIGN_OR_RETURN(int quarter, Halve(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());  // Second halving fails.
}

TEST(HashTest, MixIsInjectiveOnSmallRange) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(HashMix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, PartitionSpreadsSkewedKeys) {
  // Consecutive ids (typical graph vertices) should spread evenly.
  std::vector<int> counts(8, 0);
  for (uint64_t v = 0; v < 8000; ++v) ++counts[PartitionOf(v, 8)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(HashTest, HashWordsDependsOnLengthAndContent) {
  uint64_t a[] = {1, 2, 3};
  uint64_t b[] = {1, 2, 4};
  EXPECT_NE(HashWords(a, 3), HashWords(b, 3));
  EXPECT_NE(HashWords(a, 2), HashWords(a, 3));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool same = true, diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next();
    same &= (x == b.Next());
    diff |= (x != c.Next());
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(diff);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(2, 6);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 6);
    saw_lo |= v == 2;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  EXPECT_LT(Value::Int(3), Value::Double(3.5));
  EXPECT_LT(Value::Double(2.5), Value::Int(3));
}

TEST(ValueTest, StringsCompareById) {
  EXPECT_EQ(Value::String(5), Value::String(5));
  EXPECT_NE(Value::String(5), Value::String(6));
  EXPECT_NE(Value::String(5), Value::Int(5));
}

TEST(ValueTest, WordRoundTrips) {
  EXPECT_EQ(IntFromWord(WordFromInt(-17)), -17);
  EXPECT_EQ(DoubleFromWord(WordFromDouble(3.25)), 3.25);
}

TEST(StringDictTest, InternIsIdempotent) {
  StringDict dict;
  uint64_t a = dict.Intern("alice");
  uint64_t b = dict.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alice"), a);
  EXPECT_EQ(dict.Get(a), "alice");
  EXPECT_EQ(dict.Find("bob"), b);
  EXPECT_EQ(dict.Find("carol"), UINT64_MAX);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(StringDictTest, ConcurrentInternIsConsistent) {
  StringDict dict;
  std::vector<std::thread> threads;
  std::vector<uint64_t> ids(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&dict, &ids, t] {
      for (int i = 0; i < 500; ++i) {
        uint64_t id = dict.Intern("key" + std::to_string(i % 50));
        if (i == 42) ids[t] = id;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(dict.size(), 50u);
  for (int t = 1; t < 8; ++t) EXPECT_EQ(ids[t], ids[0]);
}

TEST(WelfordTest, MeanAndVariance) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.Add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.variance(), 4.0, 1e-9);
}

TEST(WelfordTest, DecayPreservesMoments) {
  Welford w;
  for (int i = 0; i < 100; ++i) w.Add(i % 10);
  const double mean = w.mean();
  const double var = w.variance();
  w.Decay();
  EXPECT_EQ(w.count(), 50u);
  EXPECT_DOUBLE_EQ(w.mean(), mean);
  EXPECT_NEAR(w.variance(), var, var * 0.05);
}

TEST(WelfordTest, DecayNeverEmptiesNonEmptyAccumulator) {
  // Regression: integer halving turned count 1 into 0, and the DWS
  // controller treats count() == 0 as "no estimate at all" — the mean the
  // accumulator still held was silently discarded. Decay now rounds up.
  Welford w;
  w.Add(3.5);
  w.Decay();
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.5);

  // Repeated decay converges to 1, never 0.
  for (int i = 0; i < 64; ++i) w.Decay();
  EXPECT_EQ(w.count(), 1u);

  // Odd counts round up: 3 → 2.
  Welford w3;
  w3.Add(1.0);
  w3.Add(2.0);
  w3.Add(3.0);
  w3.Decay();
  EXPECT_EQ(w3.count(), 2u);
  EXPECT_DOUBLE_EQ(w3.mean(), 2.0);

  // An empty accumulator stays empty.
  Welford empty;
  empty.Decay();
  EXPECT_EQ(empty.count(), 0u);
}

TEST(OptionsTest, ResolvedFillsWorkerCount) {
  EngineOptions o;
  o.num_workers = 0;
  EXPECT_GT(o.Resolved().num_workers, 0u);
  o.num_workers = 3;
  EXPECT_EQ(o.Resolved().num_workers, 3u);
}

TEST(OptionsTest, ModeNames) {
  EXPECT_STREQ(CoordinationModeName(CoordinationMode::kGlobal), "Global");
  EXPECT_STREQ(CoordinationModeName(CoordinationMode::kSsp), "SSP");
  EXPECT_STREQ(CoordinationModeName(CoordinationMode::kDws), "DWS");
}

TEST(OptionsTest, ToStringMentionsStrategy) {
  EngineOptions o;
  o.coordination = CoordinationMode::kSsp;
  EXPECT_NE(o.ToString().find("SSP"), std::string::npos);
}

TEST(OptionsTest, ToStringMentionsTrace) {
  EngineOptions o;
  o.enable_trace = true;
  const std::string s = o.ToString();
  EXPECT_NE(s.find("trace=on"), std::string::npos);
}

}  // namespace
}  // namespace dcdatalog
