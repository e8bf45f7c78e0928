// Torture tests: structures under adversarial shapes and the engine under
// repeated randomized configurations. Complements the per-module unit
// suites with longer randomized sequences.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "common/hash.h"
#include "common/random.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "concurrent/worker_pool.h"
#include "core/dcdatalog.h"
#include "runtime/message.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

TEST(SpscStress, CacheLinePayloadTwoThreads) {
  // A one-cache-line payload (64-byte TupleBuf) under sustained two-thread
  // traffic with a small ring (constant wraparound). The engine's rings
  // carry MsgBlocks; BlockBatchedFixpointBalancesCounters drives those.
  SpscQueue<TupleBuf> q(64);
  constexpr uint64_t kN = 200000;
  std::thread producer([&q] {
    for (uint64_t i = 0; i < kN; ++i) {
      TupleBuf buf{i, i * 3, i ^ 0xFF};
      while (!q.TryPush(buf)) std::this_thread::yield();
    }
  });
  uint64_t next = 0;
  std::vector<TupleBuf> batch;
  while (next < kN) {
    batch.clear();
    if (q.PopBatch(&batch) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const TupleBuf& buf : batch) {
      ASSERT_EQ(buf.v[0], next);
      ASSERT_EQ(buf.v[1], next * 3);
      ASSERT_EQ(buf.v[2], next ^ 0xFF);
      ++next;
    }
  }
  producer.join();
}

TEST(TerminationStress, BlockBatchedFixpointBalancesCounters) {
  // Full block-batched termination protocol under real thread interleaving
  // (run this under TSan): n workers diffuse TTL-decrementing tokens through
  // an n×n grid of SpscQueue<MsgBlock> rings, batching detector updates to
  // one OnBlockPushed per block and one AddConsumed per drain, with the
  // self-loop bypass for tokens that route back to their producer. Traffic
  // mixes full blocks (fanout bursts) and partial flushes (iteration ends),
  // and at fixpoint every produced tuple must have been consumed.
  constexpr uint32_t kWorkers = 4;
  constexpr uint64_t kSeedsPerWorker = 8;
  constexpr uint64_t kInitialTtl = 12;
  constexpr uint32_t kArity = 1;  // A token is one word: its TTL.

  TerminationDetector det(kWorkers);
  std::vector<std::unique_ptr<SpscQueue<MsgBlock>>> grid;
  for (uint32_t i = 0; i < kWorkers * kWorkers; ++i) {
    grid.push_back(std::make_unique<SpscQueue<MsgBlock>>(16));
  }
  auto ring = [&](uint32_t from, uint32_t to) -> SpscQueue<MsgBlock>& {
    return *grid[from * kWorkers + to];
  };
  std::atomic<uint64_t> tokens_processed{0};

  RunWorkers(kWorkers, [&](uint32_t wid) {
    std::vector<uint64_t> pending(kSeedsPerWorker, kInitialTtl);
    std::vector<MsgBlock> staging(kWorkers);
    std::vector<MsgBlock> batch;
    uint64_t local_processed = 0;
    Rng rng(1000 + wid);

    // Drains every inbound ring into `pending`; one AddConsumed per call.
    auto drain = [&]() -> uint64_t {
      batch.clear();
      for (uint32_t src = 0; src < kWorkers; ++src) {
        ring(src, wid).PopBatch(&batch);
      }
      uint64_t tuples = 0;
      for (const MsgBlock& b : batch) {
        for (uint32_t t = 0; t < b.count; ++t) pending.push_back(*b.Tuple(t));
        tuples += b.count;
      }
      if (tuples > 0) det.AddConsumed(wid, tuples);
      return tuples;
    };
    auto push_block = [&](uint32_t dest) {
      MsgBlock& b = staging[dest];
      while (!ring(wid, dest).TryPush(b)) {
        drain();  // Backpressure: free our own inbound rings, never spin dry.
        std::this_thread::yield();
      }
      det.OnBlockPushed(dest, b.count);
      b.count = 0;
    };
    auto route = [&](uint64_t ttl) {
      const uint32_t dest = PartitionOf(ttl + rng.Uniform(1 << 20), kWorkers);
      if (dest == wid) {
        pending.push_back(ttl);  // Self-loop bypass: no ring, no detector.
        return;
      }
      MsgBlock& b = staging[dest];
      if (b.count == 0) b.arity = kArity;
      *b.AppendSlot() = ttl;
      ++b.count;
      if (b.count >= MsgBlock::CapacityFor(kArity)) push_block(dest);
    };

    while (!det.Done()) {
      drain();
      if (!pending.empty()) {
        // Process this iteration's tokens; their children go out in blocks.
        std::vector<uint64_t> work;
        work.swap(pending);
        for (uint64_t ttl : work) {
          ++local_processed;
          if (ttl == 0) continue;
          const uint64_t fanout = 1 + rng.Uniform(2);
          for (uint64_t f = 0; f < fanout; ++f) route(ttl - 1);
        }
        // End of iteration: every partial block must flush.
        for (uint32_t dest = 0; dest < kWorkers; ++dest) {
          if (staging[dest].count > 0) push_block(dest);
        }
        continue;
      }
      det.Deactivate(wid);
      if (det.CheckTermination()) break;
      std::this_thread::yield();
    }
    tokens_processed.fetch_add(local_processed);
  });

  EXPECT_TRUE(det.Done());
  // The invariant the batched protocol must preserve: at fixpoint, counters
  // balance exactly — no block was pushed without being accounted, none was
  // drained twice, and no self-loop token ever touched them.
  EXPECT_EQ(det.produced(), det.consumed_total());
  EXPECT_GT(det.produced(), 0u);
  EXPECT_GE(tokens_processed.load(), kWorkers * kSeedsPerWorker);
  for (auto& q : grid) EXPECT_TRUE(q->EmptyApprox());
}

TEST(EngineStress, RepeatedRandomizedCcRuns) {
  // Many short runs with varying worker counts and ring sizes, checking
  // against a single reference answer — shakes out scheduling races that
  // one-shot tests miss.
  Graph g = GenerateSocialGraph(400, 5, 99);
  constexpr char kCc[] =
      "cc2(Y, min<Y>) :- arc(Y, _).\n"
      "cc2(Y, min<Y>) :- arc(_, Y).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).\n"
      "cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).\n";

  std::set<std::vector<uint64_t>> expected;
  {
    DCDatalog db;
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kCc).ok());
    auto ref = ReferenceEvaluate(*db.program(), db.catalog());
    ASSERT_TRUE(ref.ok());
    expected = RowSet(ref.value().at("cc2"));
  }

  Rng rng(31337);
  for (int run = 0; run < 25; ++run) {
    EngineOptions o;
    o.num_workers = 1 + static_cast<uint32_t>(rng.Uniform(8));
    o.coordination = rng.Uniform(2) == 0 ? CoordinationMode::kGlobal
                                         : CoordinationMode::kDws;
    o.spsc_capacity = 2u << rng.Uniform(8);
    o.dws_timeout_us = 100 + static_cast<uint32_t>(rng.Uniform(3000));
    DCDatalog db(o);
    db.AddGraph(g, "arc");
    ASSERT_TRUE(db.LoadProgramText(kCc).ok());
    auto stats = db.Run();
    ASSERT_TRUE(stats.ok()) << "run " << run << ": "
                            << stats.status().ToString();
    ASSERT_EQ(RowSet(*db.ResultFor("cc2")), expected)
        << "run " << run << " workers=" << o.num_workers << " mode="
        << CoordinationModeName(o.coordination);
  }
}

TEST(EngineStress, WideTuplesAtArityLimit) {
  // Wire arity 7 is the message-format ceiling; drive a 7-column
  // non-aggregate recursion through it.
  DCDatalog db;
  Relation base("base", Schema::Ints(7));
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    base.Append({rng.Uniform(10), rng.Uniform(10), rng.Uniform(10),
                 rng.Uniform(10), rng.Uniform(10), rng.Uniform(10),
                 rng.Uniform(10)});
  }
  db.catalog().Put(std::move(base));
  ASSERT_TRUE(db.LoadProgramText(
                    "w(A, B, C, D, E, F, G) :- base(A, B, C, D, E, F, G).\n"
                    "w(B, A, C, D, E, F, G) :- w(A, B, C, D, E, F, G).")
                  .ok());
  auto stats = db.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto ref = ReferenceEvaluate(*db.program(), db.catalog());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(RowSet(*db.ResultFor("w")), RowSet(ref.value().at("w")));
}

TEST(EngineStress, EightColumnWireRejectedCleanly) {
  DCDatalog db;
  db.catalog().Put(Relation("b8", Schema::Ints(8)));
  ASSERT_TRUE(db.LoadProgramText(
                    "w(A, B, C, D, E, F, G, H) :- b8(A, B, C, D, E, F, G, "
                    "H).\n"
                    "w(B, A, C, D, E, F, G, H) :- w(A, B, C, D, E, F, G, "
                    "H).")
                  .ok());
  auto stats = db.Run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace dcdatalog
