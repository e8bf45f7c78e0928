#ifndef DCDATALOG_SERVER_SERVER_H_
#define DCDATALOG_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/options.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "concurrent/worker_pool.h"
#include "core/engine.h"
#include "server/edb_store.h"
#include "server/http.h"
#include "storage/relation.h"

namespace dcdatalog {

struct ServerOptions {
  /// HTTP port; 0 binds an ephemeral port (read it back from port()).
  uint16_t port = 0;

  /// Shared worker-pool capacity; 0 = hardware concurrency. Every query
  /// session's evaluation gang is scheduled onto this one pool, so N
  /// resident sessions never oversubscribe the machine. The pool is the
  /// server's only admission control: a session waits for its gang's FIFO
  /// grant, and no session runs wider than the pool.
  uint32_t pool_capacity = 0;

  /// Per-session engine defaults. num_workers is the default gang width a
  /// query gets when it does not ask for one (the engine caps any width at
  /// pool_capacity); worker_pool and enable_trace are overridden per
  /// session (the pool is the server's, and per-session trace/metrics
  /// export is part of the serving contract).
  EngineOptions engine;

  /// Completed-session exports kept for /sessions/<id>/{metrics,trace};
  /// oldest are evicted beyond this.
  uint32_t max_sessions_retained = 256;
};

/// One query's execution, as seen by callers of ExecuteQuery (the HTTP
/// front end and the in-process tests).
struct QueryResult {
  uint64_t session_id = 0;
  uint64_t snapshot_version = 0;  // EdbStore version the session pinned.
  EvalStats stats;                // The session's own stats, nobody else's.
  std::vector<Relation> outputs;  // Copies of the output relations.
};

/// The resident multi-query server: a persistent EdbStore of shared
/// immutable EDB snapshots, per-query Engine instances scheduled onto one
/// shared WorkerPool (whose FIFO gang grant is the only admission control),
/// and an HTTP control plane exposing health, metrics, per-session
/// trace/metrics exports, queries, and streaming updates.
///
/// Isolation contract (the tentpole's bugfix surface): each session gets
/// its own Catalog seeded with pinned shared_ptr snapshots from the store,
/// its own Engine, its own EvalStats/TraceRing set. Sessions share only
/// immutable relations, the internally-synchronized StringDict, and the
/// WorkerPool. Updates never mutate a published relation (EdbStore is
/// copy-on-write), so a session's reads are frozen for its whole run even
/// while an update stream advances the store version.
class DcdServer {
 public:
  explicit DcdServer(ServerOptions options);
  ~DcdServer();

  DcdServer(const DcdServer&) = delete;
  DcdServer& operator=(const DcdServer&) = delete;

  /// The base EDB. Load relations through this before (or while) serving.
  EdbStore* store() { return &store_; }

  /// Starts the HTTP front end. The in-process API below works without it.
  Status Start();
  void Stop();
  uint16_t port() const { return http_.port(); }

  /// True once a client POSTed /shutdown; the serve loop polls this.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  // --- In-process session API (the HTTP handler is a thin veneer) ---------

  /// Runs one query session end to end: snapshot pin, parse against the
  /// shared dict, evaluate on the shared pool (num_workers is capped at
  /// the pool's capacity; 0 = the engine default), export the
  /// session's metrics/trace for later retrieval. Thread-safe; concurrent
  /// callers are concurrent sessions.
  Result<QueryResult> ExecuteQuery(const std::string& program_text,
                                   uint32_t num_workers = 0);

  /// Applies every batch of an update script to the base EDB
  /// (copy-on-write; running sessions keep their snapshots).
  Result<EdbStore::ApplyResult> ApplyUpdateText(const std::string& script);

  /// {"status": "ok", ...} summary for load balancers and the CI smoke.
  std::string HealthJson() const;

  /// Server-level metrics: pool, store, session counts.
  std::string MetricsJson() const;

  /// Per-session exports captured when the session finished.
  Result<std::string> SessionMetricsJson(uint64_t session_id) const;
  Result<std::string> SessionTraceJson(uint64_t session_id) const;

  WorkerPool* pool() { return &pool_; }

 private:
  struct SessionRecord {
    bool ok = false;
    std::string error;
    double seconds = 0.0;
    uint64_t snapshot_version = 0;
    std::string metrics_json;
    std::string trace_json;
  };

  HttpResponse Handle(const HttpRequest& req);
  HttpResponse HandleQuery(const HttpRequest& req);
  HttpResponse HandleUpdate(const HttpRequest& req);
  HttpResponse HandleSession(const std::string& path) const;

  void RecordSession(uint64_t id, SessionRecord record) DCD_EXCLUDES(mu_);

  ServerOptions options_;
  EdbStore store_;
  WorkerPool pool_;
  HttpServer http_;
  std::atomic<bool> shutdown_requested_{false};

  mutable Mutex mu_;
  uint64_t next_session_id_ DCD_GUARDED_BY(mu_) = 1;
  uint64_t sessions_active_ DCD_GUARDED_BY(mu_) = 0;
  uint64_t sessions_completed_ DCD_GUARDED_BY(mu_) = 0;
  uint64_t sessions_failed_ DCD_GUARDED_BY(mu_) = 0;
  std::map<uint64_t, SessionRecord> sessions_ DCD_GUARDED_BY(mu_);
};

}  // namespace dcdatalog

#endif  // DCDATALOG_SERVER_SERVER_H_
