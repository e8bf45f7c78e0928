// Unit and end-to-end tests of the resident serving layer: the shared
// gang-scheduled WorkerPool (the server's only admission control), the
// copy-on-write EdbStore, per-session stats/trace isolation, and the HTTP
// front end.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/worker_pool.h"
#include "server/edb_store.h"
#include "server/http.h"
#include "server/server.h"
#include "storage/updates.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

constexpr char kTc[] =
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
    ".output tc\n";

Relation ChainArc(const std::string& name, uint64_t n) {
  Relation rel(name, Schema::Ints(2));
  for (uint64_t i = 0; i < n; ++i) rel.Append({i, i + 1});
  return rel;
}

UpdateBatch Batch(const std::string& text) {
  auto script = ParseUpdateScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script.value().batches.size(), 1u);
  return script.value().batches[0];
}

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryWorkerExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  pool.Run(4, [&](uint32_t wid) {
    hits[wid].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(pool.JobsRun(), 1u);
  EXPECT_EQ(pool.InUse(), 0u);
}

TEST(WorkerPoolTest, GangMembersRunConcurrently) {
  // The engine's workers synchronize with each other mid-run (barriers,
  // termination detection), so a grant that dispatched fewer than the full
  // gang would deadlock. Prove all n members are live at once by making
  // them rendezvous.
  WorkerPool pool(4);
  std::atomic<uint32_t> arrived{0};
  pool.Run(4, [&](uint32_t) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < 4) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(std::memory_order_relaxed), 4u);
}

TEST(WorkerPoolTest, ConcurrentGangsShareTheCapacity) {
  WorkerPool pool(4);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> clients;
  clients.reserve(8);
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&pool, &total] {
      for (int j = 0; j < 5; ++j) {
        pool.Run(2, [&total](uint32_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(std::memory_order_relaxed), 8u * 5u * 2u);
  EXPECT_EQ(pool.JobsRun(), 40u);
  EXPECT_EQ(pool.InUse(), 0u);
}

TEST(WorkerPoolTest, PropagatesFirstWorkerException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.Run(3,
               [](uint32_t wid) {
                 if (wid == 1) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // Slots are released even on the exception path.
  EXPECT_EQ(pool.InUse(), 0u);
  pool.Run(3, [](uint32_t) {});
  EXPECT_EQ(pool.JobsRun(), 2u);
}

TEST(WorkerPoolDeathTest, GangWiderThanThePoolAborts) {
  // The pool's resident threads exist when the death statement runs, so
  // the child must re-execute the test rather than fork this process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // No gang wider than the pool could ever be granted, and there is no
  // dedicated-thread bypass: the Engine caps its width at the capacity, so
  // a wider Run() is a programming error that fails fast.
  WorkerPool pool(2);
  EXPECT_DEATH(pool.Run(3, [](uint32_t) {}),
               "gang of 3 exceeds pool capacity 2");
}

// --- EdbStore --------------------------------------------------------------

TEST(EdbStoreTest, SnapshotsSurviveConcurrentBatchUpdates) {
  // The bug this pins: an update stream rewriting a relation's rows under
  // a session that snapshotted earlier. Copy-on-write publication must
  // leave the pinned version byte-identical.
  EdbStore store;
  store.PutRelation(ChainArc("arc", 10));
  const uint64_t v1 = store.version();

  Catalog session;
  ASSERT_EQ(store.SnapshotInto(&session), v1);
  const Relation* pinned = session.Find("arc");
  ASSERT_NE(pinned, nullptr);
  const auto before = RowSet(*pinned);
  const uint64_t* data_before = pinned->raw().data();

  auto applied = store.ApplyBatch(Batch("+ arc 100 101\n- arc 0 1\n"));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().version, v1 + 1);
  EXPECT_EQ(applied.value().rows_added, 1u);
  EXPECT_EQ(applied.value().rows_removed, 1u);

  // The pinned relation: same rows, same storage, untouched.
  EXPECT_EQ(RowSet(*session.Find("arc")), before);
  EXPECT_EQ(session.Find("arc")->raw().data(), data_before);

  // A new snapshot sees the post-batch EDB.
  Catalog session2;
  EXPECT_EQ(store.SnapshotInto(&session2), v1 + 1);
  const auto after = RowSet(*session2.Find("arc"));
  EXPECT_EQ(after.count({100, 101}), 1u);
  EXPECT_EQ(after.count({0, 1}), 0u);
  EXPECT_EQ(after.size(), before.size());
}

TEST(EdbStoreTest, ConcurrentReadersAndUpdaterKeepConsistentVersions) {
  EdbStore store;
  store.PutRelation(ChainArc("arc", 50));
  std::atomic<bool> stop{false};

  std::thread updater([&store, &stop] {
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire) && i < 200;
         ++i) {
      const std::string row = std::to_string(1000 + i);
      auto applied =
          store.ApplyBatch(Batch("+ arc " + row + " " + row + "\n"));
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    }
  });

  // Readers continuously snapshot and fully scan; TSan (CI) proves the
  // absence of a data race, the size check proves snapshot atomicity
  // (every version has 50 base rows plus one per applied batch).
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&store] {
      for (int i = 0; i < 100; ++i) {
        Catalog session;
        store.SnapshotInto(&session);
        const Relation* rel = session.Find("arc");
        ASSERT_NE(rel, nullptr);
        uint64_t sum = 0;
        for (const uint64_t w : rel->raw()) sum += w;
        EXPECT_GE(rel->size(), 50u);
        EXPECT_LE(rel->size(), 250u);
        (void)sum;
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  updater.join();
}

TEST(EdbStoreTest, RejectsMalformedBatchesAtomically) {
  EdbStore store;
  store.PutRelation(ChainArc("arc", 5));
  const uint64_t v = store.version();
  EXPECT_FALSE(store.ApplyBatch(Batch("+ nosuch 1 2\n")).ok());
  EXPECT_FALSE(store.ApplyBatch(Batch("+ arc 1\n")).ok());  // Arity.
  EXPECT_EQ(store.version(), v);  // Nothing published.
}

// --- DcdServer sessions ----------------------------------------------------

ServerOptions SmallServer(uint32_t pool = 4, uint32_t workers = 2) {
  ServerOptions so;
  so.pool_capacity = pool;
  so.engine.num_workers = workers;
  return so;
}

TEST(DcdServerTest, OversizedSessionIsCappedAtThePool) {
  // A session asking for more workers than the pool holds runs as wide as
  // the pool, on the pool: the pool is the only admission control, and no
  // request can make the server spawn threads beyond it.
  DcdServer server(SmallServer(/*pool=*/2));
  server.store()->PutRelation(ChainArc("arc", 6));
  auto result = server.ExecuteQuery(kTc, /*num_workers=*/4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().outputs[0].size(), 21u);
  EXPECT_EQ(result.value().stats.worker_metrics.size(), 2u);
  EXPECT_EQ(server.pool()->InUse(), 0u);
  EXPECT_GE(server.pool()->JobsRun(), 1u);
}

TEST(DcdServerTest, ExecutesQueryOverSnapshot) {
  DcdServer server(SmallServer());
  server.store()->PutRelation(ChainArc("arc", 6));
  auto result = server.ExecuteQuery(kTc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().outputs.size(), 1u);
  EXPECT_EQ(result.value().outputs[0].name(), "tc");
  // Chain of 6 edges: tc = all (i, j) with i < j <= 6 → 21 pairs.
  EXPECT_EQ(result.value().outputs[0].size(), 21u);
  EXPECT_EQ(result.value().stats.num_sccs, 1u);
}

TEST(DcdServerTest, SessionStatsAreIsolatedPerSession) {
  // The per-session sentinel: every session exports its own EvalStats with
  // the full counter set — per session, not aggregated per process. A
  // session's counters must be explainable by its own query alone, even
  // with a bigger session racing it on the shared pool.
  DcdServer server(SmallServer(4, 2));
  server.store()->PutRelation(ChainArc("arc", 40));

  std::vector<QueryResult> results(4);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &results, c] {
      auto r = server.ExecuteQuery(kTc, 2);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      results[c] = std::move(r).value();
    });
  }
  for (auto& t : clients) t.join();

  for (const QueryResult& qr : results) {
    // The counter vocabulary is pinned: 25 counters per session (the same
    // ones engine_test's sentinel test stamps). A counter added to
    // EvalStats must surface here too — and a session must never report
    // another session's totals.
    EXPECT_EQ(qr.stats.Counters().size(), 25u);
    // 40-edge chain: every session derives exactly the same fixpoint, and
    // accepts counts exactly the fixpoint's tuples — identical across
    // sessions only if nobody's counters bled into anybody else's.
    EXPECT_EQ(qr.stats.accepts, 40u * 41u / 2u);
    // Trace isolation: a 2-worker session's events name workers 0..1 only.
    EXPECT_FALSE(qr.stats.trace.empty());
    for (const TraceEvent& ev : qr.stats.trace) EXPECT_LT(ev.worker, 2u);
    EXPECT_EQ(qr.stats.worker_metrics.size(), 2u);
  }
  // All four sessions really ran on the one pool, and released it.
  EXPECT_GE(server.pool()->JobsRun(), 4u);
  EXPECT_EQ(server.pool()->InUse(), 0u);
  EXPECT_EQ(server.pool()->Waiting(), 0u);
}

TEST(DcdServerTest, SessionExportsAreRetrievableAndWellFormed) {
  DcdServer server(SmallServer());
  server.store()->PutRelation(ChainArc("arc", 5));
  auto result = server.ExecuteQuery(kTc);
  ASSERT_TRUE(result.ok());
  const uint64_t id = result.value().session_id;

  auto metrics = server.SessionMetricsJson(id);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.value().find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.value().find("\"accepts\""), std::string::npos);

  auto trace = server.SessionTraceJson(id);
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace.value().find("\"traceEvents\""), std::string::npos);

  EXPECT_FALSE(server.SessionMetricsJson(id + 999).ok());
}

TEST(DcdServerTest, UpdatesAdvanceVersionWithoutDisturbingSessions) {
  DcdServer server(SmallServer());
  server.store()->PutRelation(ChainArc("arc", 4));
  auto before = server.ExecuteQuery(kTc);
  ASSERT_TRUE(before.ok());
  const uint64_t v_before = before.value().snapshot_version;

  auto applied = server.ApplyUpdateText("+ arc 4 5\n---\n+ arc 5 6\n");
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().version, v_before + 2);

  auto after = server.ExecuteQuery(kTc);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().snapshot_version, v_before + 2);
  // Chain grew 4 → 6 edges: 10 pairs → 21 pairs.
  EXPECT_EQ(before.value().outputs[0].size(), 10u);
  EXPECT_EQ(after.value().outputs[0].size(), 21u);
}

TEST(DcdServerTest, ParseErrorsFailTheSessionNotTheServer) {
  DcdServer server(SmallServer());
  server.store()->PutRelation(ChainArc("arc", 3));
  EXPECT_FALSE(server.ExecuteQuery("tc(X, Y) :- arc(X Y).\n").ok());
  // The server keeps serving.
  auto ok = server.ExecuteQuery(kTc);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().outputs[0].size(), 6u);
}

// --- HTTP end to end -------------------------------------------------------

/// Minimal test client against 127.0.0.1:port (blocking, Connection:
/// close), mirroring the server's own framing.
std::string HttpRoundTrip(uint16_t port, const std::string& request);

TEST(HttpServerTest, ServesConcurrentRequests) {
  HttpServer http;
  std::atomic<int> calls{0};
  ASSERT_TRUE(http.Start(0, [&calls](const HttpRequest& req) {
                    calls.fetch_add(1, std::memory_order_relaxed);
                    HttpResponse resp;
                    resp.body = req.method + " " + req.path + " q=" +
                                req.QueryParam("q") + " body=" + req.body;
                    return resp;
                  })
                  .ok());
  const uint16_t port = http.port();
  ASSERT_NE(port, 0);

  std::vector<std::thread> clients;
  std::vector<std::string> responses(6);
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([port, c, &responses] {
      const std::string body = "hello" + std::to_string(c);
      responses[c] = HttpRoundTrip(
          port, "POST /echo?q=" + std::to_string(c) +
                    " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < 6; ++c) {
    EXPECT_NE(responses[c].find("200 OK"), std::string::npos);
    EXPECT_NE(responses[c].find("q=" + std::to_string(c)), std::string::npos);
    EXPECT_NE(responses[c].find("body=hello" + std::to_string(c)),
              std::string::npos);
  }
  EXPECT_EQ(calls.load(std::memory_order_relaxed), 6);
  http.Stop();
}

TEST(HttpServerTest, EndToEndQueryAgainstDcdServer) {
  DcdServer server(SmallServer());
  server.store()->PutRelation(ChainArc("arc", 5));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  const std::string program(kTc);
  const std::string resp = HttpRoundTrip(
      port, "POST /query?workers=2 HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                std::to_string(program.size()) + "\r\n\r\n" + program);
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("\"tc\": 15"), std::string::npos);

  const std::string health =
      HttpRoundTrip(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);

  const std::string missing =
      HttpRoundTrip(port, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, WorkersBeyondThePoolRunOnThePool) {
  // ?workers= wider than the pool neither fails nor spawns threads outside
  // it: the session runs as wide as the pool, with the same outputs.
  DcdServer server(SmallServer(/*pool=*/2));
  server.store()->PutRelation(ChainArc("arc", 5));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  const std::string program(kTc);
  auto query = [&](const std::string& workers) {
    const std::string resp = HttpRoundTrip(
        port, "POST /query?workers=" + workers +
                  " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                  std::to_string(program.size()) + "\r\n\r\n" + program);
    EXPECT_NE(resp.find("200 OK"), std::string::npos) << resp;
    const size_t outputs = resp.find("\"outputs\"");
    return outputs == std::string::npos ? resp : resp.substr(outputs);
  };
  const std::string narrow = query("2");
  const uint64_t jobs_narrow = server.pool()->JobsRun();
  ASSERT_GT(jobs_narrow, 0u);
  EXPECT_EQ(query("64"), narrow);
  EXPECT_NE(narrow.find("\"tc\": 15"), std::string::npos) << narrow;
  // The wide session took as many pool gangs as the narrow one.
  EXPECT_EQ(server.pool()->JobsRun(), 2 * jobs_narrow);
  EXPECT_EQ(server.pool()->InUse(), 0u);

  const std::string trace =
      HttpRoundTrip(port, "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(trace.find("404"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace dcdatalog

// Out of the anonymous namespace so the forward declaration above finds it.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace dcdatalog {
namespace {

std::string HttpRoundTrip(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace
}  // namespace dcdatalog
