// Unit tests for src/concurrent: SPSC queue, spin barrier, termination
// detector, worker pool.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "concurrent/barrier.h"
#include "concurrent/spsc_queue.h"
#include "concurrent/termination.h"
#include "concurrent/worker_pool.h"
#include "runtime/message.h"

namespace dcdatalog {
namespace {

TEST(SpscQueueTest, SingleThreadPushPop) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.EmptyApprox());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // Full.
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(SpscQueueTest, CapacityRoundsToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(SpscQueueTest, PopBatchDrains) {
  SpscQueue<int> q(16);
  for (int i = 0; i < 10; ++i) q.TryPush(i);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out), 10u);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out[9], 9);
  EXPECT_EQ(q.PopBatch(&out), 0u);
}

TEST(SpscQueueTest, PopBatchRespectsMax) {
  SpscQueue<int> q(16);
  for (int i = 0; i < 10; ++i) q.TryPush(i);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 4), 4u);
  EXPECT_EQ(q.PopBatch(&out, 100), 6u);
}

TEST(SpscQueueTest, PopBatchMaxAcrossWraparound) {
  // Drive the indices far past capacity_ so (head + i) & mask_ wraps within
  // a single bounded batch, and verify the bound plus FIFO order hold.
  SpscQueue<uint64_t> q(8);
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  std::vector<uint64_t> out;
  for (int round = 0; round < 50; ++round) {
    while (q.TryPush(next_push)) ++next_push;  // Fill to capacity.
    out.clear();
    // The queue is full, but the consumer's cached tail may be stale, so
    // PopBatch guarantees only 1 <= popped <= max here.
    const uint64_t popped = q.PopBatch(&out, 3);
    ASSERT_GE(popped, 1u);
    ASSERT_LE(popped, 3u);
    ASSERT_EQ(out.size(), popped);
    for (uint64_t v : out) EXPECT_EQ(v, next_pop++);
  }
  // Indices are now far beyond capacity_; drain the residue (repeated calls
  // because a stale tail cache may split it) and verify order to the end.
  EXPECT_GT(next_push, 100u);
  while (next_pop < next_push) {
    out.clear();
    ASSERT_GT(q.PopBatch(&out), 0u);
    for (uint64_t v : out) EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueTest, WrapAroundPreservesFifo) {
  SpscQueue<int> q(4);
  int out;
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(q.TryPush(round));
    EXPECT_TRUE(q.TryPush(round + 1000));
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, round);
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, round + 1000);
  }
}

TEST(SpscQueueTest, TwoThreadStress) {
  // Producer pushes 1M increasing ints; consumer checks order & totality.
  SpscQueue<uint64_t> q(1024);
  constexpr uint64_t kN = 1000000;
  std::thread producer([&q] {
    for (uint64_t i = 0; i < kN; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  std::vector<uint64_t> batch;
  while (expected < kN) {
    batch.clear();
    if (q.PopBatch(&batch) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (uint64_t v : batch) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueTest, TwoThreadStressBlockElements) {
  // Same producer/consumer race but over 2 KiB MsgBlock elements — the
  // element type the engine actually ships — so the copy into and out of a
  // slot spans many cache lines and any torn publish shows up as a payload
  // mismatch.
  SpscQueue<MsgBlock> q(64);
  constexpr uint64_t kBlocks = 20000;
  std::thread producer([&q] {
    for (uint64_t i = 0; i < kBlocks; ++i) {
      MsgBlock b;
      b.tag = static_cast<uint16_t>(i & 0x7);
      b.arity = 2;
      b.count = static_cast<uint16_t>(1 + (i % MsgBlock::CapacityFor(2)));
      for (uint32_t t = 0; t < b.count; ++t) {
        b.w[t * 2] = i;
        b.w[t * 2 + 1] = i ^ (t + 1);
      }
      while (!q.TryPush(b)) std::this_thread::yield();
    }
  });
  uint64_t seen = 0;
  uint64_t tuples = 0;
  std::vector<MsgBlock> batch;
  while (seen < kBlocks) {
    batch.clear();
    if (q.PopBatch(&batch, 16) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const MsgBlock& b : batch) {
      ASSERT_EQ(b.tag, seen & 0x7);
      ASSERT_EQ(b.arity, 2u);
      ASSERT_EQ(b.count, 1 + (seen % MsgBlock::CapacityFor(2)));
      for (uint32_t t = 0; t < b.count; ++t) {
        ASSERT_EQ(b.w[t * 2], seen);
        ASSERT_EQ(b.w[t * 2 + 1], seen ^ (t + 1));
      }
      tuples += b.count;
      ++seen;
    }
  }
  producer.join();
  EXPECT_TRUE(q.EmptyApprox());
  EXPECT_GT(tuples, kBlocks);  // Every block carried at least one tuple.
}

TEST(BarrierTest, RendezvousCounts) {
  constexpr uint32_t kParties = 4;
  SpinBarrier barrier(kParties);
  std::atomic<int> phase_sum{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        phase_sum.fetch_add(1);
        barrier.Wait();
        // Between barriers every thread observed the full round.
        ASSERT_EQ(phase_sum.load() % kParties, 0u);
        barrier.Wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(phase_sum.load(), 4 * 50);
}

TEST(BarrierTest, ExactlyOneSerialSectionPerRound) {
  constexpr uint32_t kParties = 3;
  SpinBarrier barrier(kParties);
  std::atomic<int> serial_runs{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 100; ++round) {
        barrier.Wait([&serial_runs] { serial_runs.fetch_add(1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(serial_runs.load(), 100);
}

TEST(TerminationTest, SimpleLifecycle) {
  TerminationDetector det(2);
  EXPECT_FALSE(det.CheckTermination());  // Workers start active.
  det.Deactivate(0);
  EXPECT_FALSE(det.CheckTermination());
  det.Deactivate(1);
  EXPECT_TRUE(det.CheckTermination());
  EXPECT_TRUE(det.Done());
}

TEST(TerminationTest, InFlightTuplesBlockTermination) {
  TerminationDetector det(2);
  det.AddProduced(3);
  det.Deactivate(0);
  det.Deactivate(1);
  EXPECT_FALSE(det.CheckTermination());  // 3 produced, 0 consumed.
  det.AddConsumed(1, 3);
  EXPECT_TRUE(det.CheckTermination());
}

TEST(TerminationTest, ReactivationBlocksTermination) {
  TerminationDetector det(2);
  det.Deactivate(0);
  det.Deactivate(1);
  det.Activate(1);
  EXPECT_FALSE(det.CheckTermination());
  det.Deactivate(1);
  EXPECT_TRUE(det.CheckTermination());
}

TEST(TerminationTest, ConcurrentProduceConsumeNeverFalseTerminates) {
  // Two "workers" bounce a token; the detector must never fire while the
  // token is in flight.
  TerminationDetector det(2);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> token_passes{0};
  std::atomic<bool> false_positive{false};

  std::thread bouncer([&] {
    for (int i = 0; i < 20000; ++i) {
      det.AddProduced(1);
      det.Activate(1);
      det.AddConsumed(1, 1);
      token_passes.fetch_add(1);
      det.Deactivate(1);
      det.Activate(1);
    }
    stop.store(true);
  });
  std::thread checker([&] {
    while (!stop.load()) {
      if (det.CheckTermination()) {
        false_positive.store(true);
        return;
      }
    }
  });
  bouncer.join();
  checker.join();
  // Worker 0 was active the whole time → termination is impossible.
  EXPECT_FALSE(false_positive.load());
  EXPECT_FALSE(det.Done());
}

TEST(WorkerPoolTest, RunWorkersCoversAllIds) {
  std::vector<std::atomic<int>> hits(8);
  RunWorkers(8, [&hits](uint32_t wid) { hits[wid].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  std::thread::id main_id = std::this_thread::get_id();
  std::thread::id seen;
  RunWorkers(1, [&](uint32_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, main_id);
}

TEST(WorkerPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(7, 1000, [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ParallelForEmptyAndTiny) {
  ParallelFor(4, 0, [](uint64_t, uint64_t) { FAIL(); });
  std::atomic<int> count{0};
  ParallelFor(16, 3, [&](uint64_t b, uint64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 3);
}

}  // namespace
}  // namespace dcdatalog
