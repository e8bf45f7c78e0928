#include "server/server.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "common/parse.h"
#include "core/trace_export.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "storage/catalog.h"
#include "storage/updates.h"

namespace dcdatalog {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "{\"error\": \"" + JsonEscape(message) + "\"}\n";
  return resp;
}

/// The output predicates of a program: `.output` declarations, else every
/// rule head (same policy as the CLI's result printing).
std::vector<std::string> OutputPredicates(const Program& program) {
  if (!program.outputs.empty()) return program.outputs;
  std::map<std::string, bool> heads;
  for (const Rule& rule : program.rules) heads[rule.head.predicate] = true;
  std::vector<std::string> out;
  out.reserve(heads.size());
  for (const auto& [name, unused] : heads) out.push_back(name);
  return out;
}

}  // namespace

DcdServer::DcdServer(ServerOptions options)
    : options_(std::move(options)),
      pool_(options_.pool_capacity != 0
                ? options_.pool_capacity
                : EngineOptions{}.Resolved().num_workers) {}

DcdServer::~DcdServer() { Stop(); }

Status DcdServer::Start() {
  return http_.Start(options_.port,
                     [this](const HttpRequest& req) { return Handle(req); });
}

void DcdServer::Stop() { http_.Stop(); }

Result<QueryResult> DcdServer::ExecuteQuery(const std::string& program_text,
                                            uint32_t num_workers) {
  uint64_t id = 0;
  {
    MutexLock lock(&mu_);
    id = next_session_id_++;
    ++sessions_active_;
  }

  EngineOptions eo = options_.engine;
  if (num_workers != 0) eo.num_workers = num_workers;
  // The Engine caps the width at the pool's capacity.
  eo.worker_pool = &pool_;
  eo.enable_trace = true;  // Per-session trace export is part of serving.

  // Session-local state: nothing here outlives the call except the pinned
  // shared relations and the record of the exports.
  QueryResult result;
  result.session_id = id;

  SessionRecord record;
  auto finish = [&](const Status& st) {
    MutexLock lock(&mu_);
    --sessions_active_;
    if (st.ok()) {
      ++sessions_completed_;
    } else {
      ++sessions_failed_;
    }
  };

  Catalog session_catalog;
  result.snapshot_version = store_.SnapshotInto(&session_catalog);
  record.snapshot_version = result.snapshot_version;

  Result<Program> program = ParseProgram(program_text, store_.dict());
  if (!program.ok()) {
    record.error = program.status().ToString();
    RecordSession(id, std::move(record));
    finish(program.status());
    return program.status();
  }

  Engine engine(&session_catalog, eo);
  Result<EvalStats> stats = engine.Run(program.value());
  if (!stats.ok()) {
    record.error = stats.status().ToString();
    RecordSession(id, std::move(record));
    finish(stats.status());
    return stats.status();
  }

  // Export this session's metrics and trace now, from its own EvalStats —
  // the per-session isolation the stats sentinel test pins down.
  {
    std::ostringstream metrics;
    WriteMetricsJson(stats.value(), metrics);
    record.metrics_json = metrics.str();
    std::ostringstream trace;
    WriteChromeTrace(stats.value(), trace);
    record.trace_json = trace.str();
    record.ok = true;
    record.seconds = stats.value().seconds;
  }

  for (const std::string& pred : OutputPredicates(program.value())) {
    const Relation* rel = session_catalog.Find(pred);
    if (rel != nullptr) result.outputs.push_back(*rel);
  }
  result.stats = std::move(stats).value();
  RecordSession(id, std::move(record));
  finish(Status::OK());
  return result;
}

Result<EdbStore::ApplyResult> DcdServer::ApplyUpdateText(
    const std::string& script_text) {
  DCD_ASSIGN_OR_RETURN(UpdateScript script, ParseUpdateScript(script_text));
  EdbStore::ApplyResult total;
  for (const UpdateBatch& batch : script.batches) {
    DCD_ASSIGN_OR_RETURN(EdbStore::ApplyResult one, store_.ApplyBatch(batch));
    total.version = one.version;
    total.relations_touched += one.relations_touched;
    total.rows_added += one.rows_added;
    total.rows_removed += one.rows_removed;
  }
  if (script.batches.empty()) total.version = store_.version();
  return total;
}

void DcdServer::RecordSession(uint64_t id, SessionRecord record) {
  MutexLock lock(&mu_);
  sessions_.emplace(id, std::move(record));
  while (sessions_.size() > options_.max_sessions_retained) {
    sessions_.erase(sessions_.begin());
  }
}

std::string DcdServer::HealthJson() const {
  uint64_t active = 0;
  uint64_t completed = 0;
  {
    MutexLock lock(&mu_);
    active = sessions_active_;
    completed = sessions_completed_;
  }
  std::ostringstream os;
  os << "{\"status\": \"ok\", \"store_version\": " << store_.version()
     << ", \"sessions_active\": " << active
     << ", \"sessions_completed\": " << completed << "}\n";
  return os.str();
}

std::string DcdServer::MetricsJson() const {
  uint64_t active = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  {
    MutexLock lock(&mu_);
    active = sessions_active_;
    completed = sessions_completed_;
    failed = sessions_failed_;
  }
  std::ostringstream os;
  os << "{\"pool\": {\"capacity\": " << pool_.capacity()
     << ", \"in_use\": " << pool_.InUse()
     << ", \"waiting\": " << pool_.Waiting()
     << ", \"jobs_run\": " << pool_.JobsRun() << "},\n"
     << "\"store\": {\"version\": " << store_.version()
     << ", \"relations\": " << store_.RelationCount() << "},\n"
     << "\"sessions\": {\"active\": " << active
     << ", \"completed\": " << completed << ", \"failed\": " << failed
     << "}}\n";
  return os.str();
}

Result<std::string> DcdServer::SessionMetricsJson(uint64_t session_id) const {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  if (!it->second.ok) {
    return Status::InvalidArgument("session failed: " + it->second.error);
  }
  return it->second.metrics_json;
}

Result<std::string> DcdServer::SessionTraceJson(uint64_t session_id) const {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  if (!it->second.ok) {
    return Status::InvalidArgument("session failed: " + it->second.error);
  }
  return it->second.trace_json;
}

HttpResponse DcdServer::Handle(const HttpRequest& req) {
  if (req.path == "/healthz" && req.method == "GET") {
    HttpResponse resp;
    resp.body = HealthJson();
    return resp;
  }
  if (req.path == "/metrics" && req.method == "GET") {
    HttpResponse resp;
    resp.body = MetricsJson();
    return resp;
  }
  if (req.path == "/query") {
    if (req.method != "POST") return JsonError(405, "POST /query");
    return HandleQuery(req);
  }
  if (req.path == "/update") {
    if (req.method != "POST") return JsonError(405, "POST /update");
    return HandleUpdate(req);
  }
  if (req.path.rfind("/sessions/", 0) == 0 && req.method == "GET") {
    return HandleSession(req.path);
  }
  if (req.path == "/shutdown" && req.method == "POST") {
    shutdown_requested_.store(true, std::memory_order_release);
    HttpResponse resp;
    resp.body = "{\"status\": \"shutting down\"}\n";
    return resp;
  }
  return JsonError(404, "no such endpoint: " + req.method + " " + req.path);
}

HttpResponse DcdServer::HandleQuery(const HttpRequest& req) {
  if (req.body.empty()) return JsonError(400, "empty program body");
  uint32_t workers = 0;
  const std::string workers_param = req.QueryParam("workers");
  if (!workers_param.empty()) {
    if (!ParseUint32Checked(workers_param.c_str(), 1, 4096, &workers)) {
      return JsonError(400, "workers expects an integer in [1, 4096]");
    }
  }
  Result<QueryResult> result = ExecuteQuery(req.body, workers);
  if (!result.ok()) return JsonError(400, result.status().ToString());

  const QueryResult& qr = result.value();
  std::ostringstream os;
  os << "{\"session\": " << qr.session_id
     << ", \"snapshot_version\": " << qr.snapshot_version
     << ", \"seconds\": " << qr.stats.seconds << ", \"outputs\": {";
  bool first = true;
  for (const Relation& rel : qr.outputs) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(rel.name()) << "\": " << rel.size();
  }
  os << "}";
  const std::string dump = req.QueryParam("dump");
  if (!dump.empty()) {
    for (const Relation& rel : qr.outputs) {
      if (rel.name() != dump) continue;
      os << ", \"dump\": \"" << JsonEscape(rel.ToString(1000)) << "\"";
      break;
    }
  }
  os << "}\n";
  HttpResponse resp;
  resp.body = os.str();
  return resp;
}

HttpResponse DcdServer::HandleUpdate(const HttpRequest& req) {
  Result<EdbStore::ApplyResult> applied = ApplyUpdateText(req.body);
  if (!applied.ok()) return JsonError(400, applied.status().ToString());
  std::ostringstream os;
  os << "{\"version\": " << applied.value().version
     << ", \"relations_touched\": " << applied.value().relations_touched
     << ", \"rows_added\": " << applied.value().rows_added
     << ", \"rows_removed\": " << applied.value().rows_removed << "}\n";
  HttpResponse resp;
  resp.body = os.str();
  return resp;
}

HttpResponse DcdServer::HandleSession(const std::string& path) const {
  // /sessions/<id>/metrics or /sessions/<id>/trace
  const size_t id_begin = std::string("/sessions/").size();
  const size_t slash = path.find('/', id_begin);
  if (slash == std::string::npos) {
    return JsonError(404, "expected /sessions/<id>/metrics|trace");
  }
  uint64_t id = 0;
  if (!ParseUint64Checked(path.substr(id_begin, slash - id_begin).c_str(), 1,
                          UINT64_MAX, &id)) {
    return JsonError(400, "bad session id");
  }
  const std::string what = path.substr(slash + 1);
  Result<std::string> body = what == "metrics"   ? SessionMetricsJson(id)
                             : what == "trace"   ? SessionTraceJson(id)
                             : Result<std::string>(Status::NotFound(
                                   "expected metrics or trace, got: " + what));
  if (!body.ok()) return JsonError(404, body.status().ToString());
  HttpResponse resp;
  resp.body = std::move(body).value();
  return resp;
}

}  // namespace dcdatalog
