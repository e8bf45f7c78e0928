// Unit tests for the observability layer: the per-worker trace ring, the
// log-bucket histogram, the checked CLI integer parsers, and the Chrome
// trace / metrics JSON exporters.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/parse.h"
#include "common/trace.h"
#include "core/dcdatalog.h"
#include "core/trace_export.h"
#include "graph/generators.h"

namespace dcdatalog {
namespace {

TraceEvent Ev(uint64_t seq) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kIteration;
  ev.start_ns = static_cast<int64_t>(seq);
  ev.end_ns = static_cast<int64_t>(seq + 1);
  ev.tuples = seq;
  return ev;
}

TEST(TraceRingTest, DefaultConstructedIsDisabled) {
  TraceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.Append(Ev(1));  // Must be a no-op, not a crash.
  EXPECT_EQ(ring.appended(), 0u);
  std::vector<TraceEvent> out;
  ring.Snapshot(&out);
  EXPECT_TRUE(out.empty());
}

TEST(TraceRingTest, ZeroCapacityIsDisabled) {
  TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(5);  // → 8 slots.
  for (uint64_t i = 0; i < 8; ++i) ring.Append(Ev(i));
  EXPECT_EQ(ring.dropped(), 0u);
  ring.Append(Ev(8));
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(TraceRingTest, SnapshotBelowCapacityKeepsOrder) {
  TraceRing ring(8);
  ASSERT_TRUE(ring.enabled());
  for (uint64_t i = 0; i < 5; ++i) ring.Append(Ev(i));
  std::vector<TraceEvent> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].tuples, i);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, OverflowDropsOldestKeepsNewest) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 11; ++i) ring.Append(Ev(i));
  EXPECT_EQ(ring.appended(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  std::vector<TraceEvent> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 4u);
  // The survivors are the newest four, oldest first.
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].tuples, 7 + i);
}

TEST(TraceRingTest, SnapshotAppendsToExisting) {
  TraceRing a(4), b(4);
  a.Append(Ev(1));
  b.Append(Ev(2));
  std::vector<TraceEvent> out;
  a.Snapshot(&out);
  b.Snapshot(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tuples, 1u);
  EXPECT_EQ(out[1].tuples, 2u);
}

TEST(TraceVocabularyTest, NamesAndSpanKindsAgree) {
  // Every kind has a distinct non-"unknown" name, and the span/instant
  // split matches the documented vocabulary.
  const TraceEventKind kinds[] = {
      TraceEventKind::kIteration, TraceEventKind::kPark,
      TraceEventKind::kBarrierWait, TraceEventKind::kDwsWait,
      TraceEventKind::kDrain, TraceEventKind::kBlockPush,
      TraceEventKind::kSccBegin, TraceEventKind::kSccEnd,
      TraceEventKind::kDwsDecision,
  };
  std::set<std::string> names;
  for (TraceEventKind k : kinds) {
    const std::string name = TraceEventKindName(k);
    EXPECT_NE(name, "unknown");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(TraceEventIsSpan(TraceEventKind::kIteration));
  EXPECT_TRUE(TraceEventIsSpan(TraceEventKind::kDwsWait));
  EXPECT_FALSE(TraceEventIsSpan(TraceEventKind::kDwsDecision));
  EXPECT_FALSE(TraceEventIsSpan(TraceEventKind::kDrain));
}

TEST(LogHistogramTest, BucketBoundaries) {
  EXPECT_EQ(LogHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LogHistogram::BucketOf(1), 1u);
  EXPECT_EQ(LogHistogram::BucketOf(2), 2u);
  EXPECT_EQ(LogHistogram::BucketOf(3), 2u);
  EXPECT_EQ(LogHistogram::BucketOf(4), 3u);
  EXPECT_EQ(LogHistogram::BucketOf(UINT64_MAX), 64u);
  EXPECT_EQ(LogHistogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(LogHistogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(LogHistogram::BucketLowerBound(3), 4u);
  // Round-trip: every bucket's lower bound lands in that bucket.
  for (uint32_t b = 1; b < LogHistogram::kBuckets; ++b) {
    EXPECT_EQ(LogHistogram::BucketOf(LogHistogram::BucketLowerBound(b)), b);
  }
}

TEST(LogHistogramTest, MomentsAndQuantiles) {
  LogHistogram h;
  for (uint64_t v : {1u, 1u, 2u, 4u, 100u}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.total(), 108u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 108.0 / 5.0);
  // p0 hits the first bucket (values {1,1}); its upper bound is 1.
  EXPECT_EQ(h.Quantile(0.0), 1u);
  // p99 lands in 100's bucket [64,128): upper bound 127.
  EXPECT_EQ(h.Quantile(0.99), 127u);
  EXPECT_EQ(LogHistogram().Quantile(0.5), 0u);  // Empty → 0.
}

TEST(LogHistogramTest, MergeAndReset) {
  LogHistogram a, b;
  a.Add(3);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.total(), 1003u);
  EXPECT_EQ(a.max(), 1000u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0u);
}

TEST(ParseCheckedTest, AcceptsPlainIntegers) {
  int64_t v = -1;
  EXPECT_TRUE(ParseInt64Checked("42", 0, 100, &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64Checked("-5", -10, 10, &v));
  EXPECT_EQ(v, -5);
  uint32_t u = 0;
  EXPECT_TRUE(ParseUint32Checked("4096", 1, 4096, &u));
  EXPECT_EQ(u, 4096u);
}

TEST(ParseCheckedTest, RejectsWhatAtoiAccepts) {
  int64_t v = 123;
  EXPECT_FALSE(ParseInt64Checked("", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked("12abc", 0, 100, &v));   // Trailing junk.
  EXPECT_FALSE(ParseInt64Checked("abc", 0, 100, &v));     // atoi → 0.
  EXPECT_FALSE(ParseInt64Checked("4 2", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked(nullptr, 0, 100, &v));
  EXPECT_EQ(v, 123);  // Untouched on failure.

  uint64_t u = 7;
  EXPECT_FALSE(ParseUint64Checked("-1", 0, 100, &u));     // No wrapping.
  EXPECT_FALSE(ParseUint64Checked("1e3", 0, 10000, &u));
  EXPECT_EQ(u, 7u);
}

TEST(ParseCheckedTest, RejectsStrtolLeniencies) {
  // strtoll itself skips leading whitespace and accepts an explicit '+';
  // a flag value is a typed-out number, so both must fail like any other
  // malformed token (and trailing whitespace was already trailing junk).
  int64_t v = 123;
  EXPECT_FALSE(ParseInt64Checked(" 5", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked("+5", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked("5 ", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked("\t5", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked(" -5", -10, 10, &v));
  EXPECT_EQ(v, 123);  // Untouched on failure.

  uint64_t u = 7;
  EXPECT_FALSE(ParseUint64Checked(" 5", 0, 100, &u));
  EXPECT_FALSE(ParseUint64Checked("+5", 0, 100, &u));
  EXPECT_FALSE(ParseUint64Checked("5 ", 0, 100, &u));
  EXPECT_FALSE(ParseUint64Checked("\n5", 0, 100, &u));
  EXPECT_EQ(u, 7u);

  uint32_t u32 = 9;
  EXPECT_FALSE(ParseUint32Checked(" 4", 1, 4096, &u32));
  EXPECT_FALSE(ParseUint32Checked("+4", 1, 4096, &u32));
  EXPECT_EQ(u32, 9u);
}

TEST(ParseCheckedTest, RangeAndOverflow) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64Checked("101", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked("-1", 0, 100, &v));
  EXPECT_FALSE(ParseInt64Checked("99999999999999999999999", 0,
                                 INT64_MAX, &v));  // ERANGE.
  uint32_t u = 0;
  EXPECT_FALSE(ParseUint32Checked("0", 1, 4096, &u));
  EXPECT_TRUE(ParseUint32Checked("1", 1, 4096, &u));
}

// --- Exporters ------------------------------------------------------------

EvalStats TracedRun(CoordinationMode mode) {
  EngineOptions opts;
  opts.num_workers = 2;
  opts.coordination = mode;
  opts.enable_trace = true;
  DCDatalog db(opts);
  Graph g = GenerateGnp(40, 0.06, 21);
  db.AddGraph(g, "arc");
  EXPECT_TRUE(db.LoadProgramText("tc(X, Y) :- arc(X, Y).\n"
                                 "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n")
                  .ok());
  auto stats = db.Run();
  EXPECT_TRUE(stats.ok());
  return std::move(stats).value();
}

TEST(TraceExportTest, ChromeTraceHasTracksSpansAndDecisions) {
  const EvalStats stats = TracedRun(CoordinationMode::kDws);
  std::ostringstream os;
  WriteChromeTrace(stats, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata record per worker.
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos);
  // Spans and instants in Chrome phase vocabulary.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // DWS decision markers carry the model state.
  EXPECT_NE(json.find("\"dws_decision\""), std::string::npos);
  EXPECT_NE(json.find("\"omega\""), std::string::npos);
  EXPECT_NE(json.find("\"rho\""), std::string::npos);
  // No raw-nanosecond timestamps leak through unnormalized (ts is relative
  // to the run start, so it must not require 19 digits).
  EXPECT_EQ(json.find("Infinity"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(TraceExportTest, MetricsJsonCoversCountersAndHistograms) {
  const EvalStats stats = TracedRun(CoordinationMode::kGlobal);
  std::ostringstream os;
  WriteMetricsJson(stats, os);
  const std::string json = os.str();
  // Every Counters() entry appears by name — including the once-missing
  // tuples_emitted.
  for (const auto& [name, value] : stats.Counters()) {
    (void)value;
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"iteration_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(TraceExportTest, FileWritersFailLoudlyOnBadPath) {
  const EvalStats stats;  // Empty stats are fine to serialize.
  EXPECT_FALSE(
      WriteChromeTraceFile(stats, "/nonexistent-dir/trace.json").ok());
  EXPECT_FALSE(
      WriteMetricsJsonFile(stats, "/nonexistent-dir/metrics.json").ok());
}

TEST(TraceExportTest, EmptyTraceStillParses) {
  const EvalStats stats;
  std::ostringstream os;
  WriteChromeTrace(stats, os);
  EXPECT_NE(os.str().find("\"traceEvents\": ["), std::string::npos);
  std::ostringstream ms;
  WriteMetricsJson(stats, ms);
  EXPECT_NE(ms.str().find("\"workers\": ["), std::string::npos);
}

}  // namespace
}  // namespace dcdatalog
