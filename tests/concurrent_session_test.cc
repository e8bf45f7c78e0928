// The serving tentpole's integration proof: N concurrent sessions, each
// running a distinct query over one shared EDB snapshot store, while an
// update stream applies batches copy-on-write underneath them. Every
// session records which store version it pinned; afterwards each result is
// diffed against a single-threaded oracle evaluated over an exact
// reconstruction of that version. Runs under the TSan CI job — the mutex
// discipline of Catalog/EdbStore/WorkerPool/StringDict is what it probes.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/dcdatalog.h"
#include "server/server.h"
#include "storage/relation.h"
#include "storage/updates.h"
#include "tests/test_util.h"

namespace dcdatalog {
namespace {

using testing_util::RowSet;

/// The distinct per-session queries: different shapes (closure, reversed
/// closure, bounded hops, undirected closure, join-heavy, non-recursive),
/// all over the same base relation `arc`.
const char* kPrograms[] = {
    // 0: transitive closure.
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
    ".output tc\n",
    // 1: reversed closure.
    "rarc(X, Y) :- arc(Y, X).\n"
    "rtc(X, Y) :- rarc(X, Y).\n"
    "rtc(X, Y) :- rtc(X, Z), rarc(Z, Y).\n"
    ".output rtc\n",
    // 2: exactly-two-hop pairs (non-recursive join).
    "hop2(X, Y) :- arc(X, Z), arc(Z, Y).\n"
    ".output hop2\n",
    // 3: undirected closure.
    "sym(X, Y) :- arc(X, Y).\n"
    "sym(X, Y) :- arc(Y, X).\n"
    "stc(X, Y) :- sym(X, Y).\n"
    "stc(X, Y) :- stc(X, Z), sym(Z, Y).\n"
    ".output stc\n",
    // 4: closure restricted to three-hop-or-more pairs.
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
    "far(X, Y) :- tc(X, Z), arc(Z, W), arc(W, Y).\n"
    ".output far\n",
    // 5: vertices reachable from their own successors (cycle detector).
    "tc(X, Y) :- arc(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
    "cyc(X, X) :- tc(X, X).\n"
    ".output cyc\n",
};
constexpr size_t kNumPrograms = sizeof(kPrograms) / sizeof(kPrograms[0]);

Relation SeedArc() {
  Relation rel("arc", Schema::Ints(2));
  // A ring with chords: cycles for program 5, enough density for hops.
  constexpr uint64_t kN = 24;
  for (uint64_t i = 0; i < kN; ++i) {
    rel.Append({i, (i + 1) % kN});
    if (i % 3 == 0) rel.Append({i, (i + 7) % kN});
  }
  return rel;
}

UpdateScript Updates() {
  std::string text;
  for (int b = 0; b < 8; ++b) {
    text += "+ arc " + std::to_string(100 + b) + " " + std::to_string(b) +
            "\n";
    text += "+ arc " + std::to_string(b) + " " + std::to_string(100 + b) +
            "\n";
    text += "- arc " + std::to_string(b * 3 % 24) + " " +
            std::to_string((b * 3 + 1) % 24) + "\n";
    text += "---\n";
  }
  auto script = ParseUpdateScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  return std::move(script).value();
}

struct SessionRun {
  size_t program = 0;
  uint64_t snapshot_version = 0;
  std::map<std::string, std::set<std::vector<uint64_t>>> outputs;
};

TEST(ConcurrentSessionTest, SessionsMatchOraclesAcrossUpdateStream) {
  ServerOptions so;
  so.pool_capacity = 8;
  so.engine.num_workers = 2;
  DcdServer server(so);
  server.store()->PutRelation(SeedArc());

  // Exact arc contents per store version, captured by the (only) updater
  // thread after each apply: the oracle inputs.
  Mutex versions_mu;
  std::map<uint64_t, Relation> version_arcs;
  {
    Catalog snap;
    const uint64_t v0 = server.store()->SnapshotInto(&snap);
    MutexLock lock(&versions_mu);
    version_arcs.emplace(v0, *snap.Find("arc"));
  }

  const UpdateScript script = Updates();
  std::thread updater([&server, &script, &versions_mu, &version_arcs] {
    for (const UpdateBatch& batch : script.batches) {
      auto applied = server.store()->ApplyBatch(batch);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      Catalog snap;
      const uint64_t v = server.store()->SnapshotInto(&snap);
      ASSERT_EQ(v, applied.value().version);  // Single writer.
      MutexLock lock(&versions_mu);
      version_arcs.emplace(v, *snap.Find("arc"));
      // No sleep: back-to-back batches race the sessions as hard as the
      // scheduler allows, which is the point.
    }
  });

  constexpr int kSessionThreads = 6;
  constexpr int kQueriesPerThread = 3;
  std::vector<SessionRun> runs(kSessionThreads * kQueriesPerThread);
  std::vector<std::thread> clients;
  for (int t = 0; t < kSessionThreads; ++t) {
    clients.emplace_back([&server, &runs, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const size_t prog = (t + q) % kNumPrograms;
        auto result = server.ExecuteQuery(kPrograms[prog], 2);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        SessionRun& run = runs[t * kQueriesPerThread + q];
        run.program = prog;
        run.snapshot_version = result.value().snapshot_version;
        for (const Relation& rel : result.value().outputs) {
          run.outputs[rel.name()] = RowSet(rel);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  updater.join();

  // Every session against its own single-threaded oracle at exactly the
  // version it pinned.
  for (const SessionRun& run : runs) {
    auto it = version_arcs.find(run.snapshot_version);
    ASSERT_NE(it, version_arcs.end())
        << "session pinned unrecorded version " << run.snapshot_version;
    EngineOptions oracle_opts;
    oracle_opts.num_workers = 1;
    DCDatalog oracle(oracle_opts);
    oracle.catalog().Put(it->second);
    ASSERT_TRUE(oracle.LoadProgramText(kPrograms[run.program]).ok());
    auto oracle_run = oracle.Run();
    ASSERT_TRUE(oracle_run.ok()) << oracle_run.status().ToString();
    ASSERT_FALSE(run.outputs.empty());
    for (const auto& [name, rows] : run.outputs) {
      const Relation* expect = oracle.ResultFor(name);
      ASSERT_NE(expect, nullptr) << name;
      EXPECT_EQ(rows, RowSet(*expect))
          << "program " << run.program << " output " << name
          << " diverged from its oracle at version " << run.snapshot_version;
    }
  }

  // The sessions really shared one pool and released every slot of it.
  EXPECT_GE(server.pool()->JobsRun(),
            static_cast<uint64_t>(kSessionThreads * kQueriesPerThread));
  EXPECT_EQ(server.pool()->InUse(), 0u);
  EXPECT_EQ(server.pool()->Waiting(), 0u);
}

}  // namespace
}  // namespace dcdatalog
