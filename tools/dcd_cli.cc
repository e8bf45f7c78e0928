// dcd — the DCDatalog command-line tool.
//
//   dcd run <program.dl> --rel name=path[:spec] ... [options]
//       Evaluates the program over fact files. Each --rel loads a base
//       relation from whitespace-separated text; `spec` gives column types
//       (i=int, d=double, s=string; default: all int, arity inferred from
//       the program). Results for every `.output` predicate (or every
//       derived predicate if none) print to stdout or to files with --out.
//
//   dcd explain <program.dl> --rel ...
//       Prints the analysis, logical plans, and physical plan.
//
//   dcd generate <kind> <path> [args]
//       Writes a synthetic dataset: kinds are
//         rmat:<vertices>[:<deg>]    tree:<height>    gnp:<vertices>:<p>
//         social:<vertices>[:<deg>]  ntree:<vertices>
//         star:<spokes>              zipf:<vertices>[:<deg>[:<alpha>]]
//       --weights <max> adds random integer weights.
//
//   dcd serve --rel name=path:spec ... [options]
//       Starts the resident multi-query server: base relations are loaded
//       once into a shared store, then HTTP clients POST programs to
//       /query (each runs as its own session over a pinned EDB snapshot,
//       scheduled onto one shared worker pool). Endpoints: POST /query
//       [?workers=N&dump=pred], POST /update (update-script body),
//       GET /healthz, /metrics, /trace (admission decisions),
//       /sessions/<id>/metrics, /sessions/<id>/trace; POST /shutdown.
//       serve-only options:
//         --port N            listen port (default 0 = ephemeral)
//         --port-file FILE    write the bound port for scripted clients
//         --pool N            shared worker-pool capacity (default: hw)
//         --updates FILE      stream the script's batches into the store,
//                             one batch per --update-interval-ms (def 100)
//       --rel specs are mandatory in serve mode (no program to infer
//       arities from).
//
// Common options (--flag value and --flag=value are both accepted):
//   --workers N        worker threads, 1..4096 (default: hardware)
//   --mode global|ssp|dws
//   --slack N          SSP slack (default 5)
//   --no-agg-index --no-cache --no-partial-agg   disable §6.2/Fig.7 opts
//   --merge-index-backend flat|btree   merge-path index family (default
//                      flat; btree is the Table 4 ablation baseline)
//   --pipeline-executor batch|tuple    rule-pipeline executor (default
//                      batch; tuple is the ablation baseline)
//   --steal on|off     skew-adaptive morsel stealing (default on; off is
//                      the skew-ablation baseline)
//   --numa auto|off    NUMA-aware worker placement and first-touch ring
//                      allocation (default auto; no-op on single-socket)
//   --out pred=path    write one predicate to a file (repeatable)
//   --updates FILE     after the initial fixpoint, stream EDB update
//                      batches from FILE ("+ rel v..." / "- rel v..." per
//                      line, batches separated by "---") and maintain the
//                      fixpoint incrementally after each batch
//   --stats            print EvalStats (with --updates: once per batch)
//   --seed N           generator seed (default 42)
//   --trace-out FILE   write a Chrome trace-event JSON of the run (implies
//                      tracing on); load it in Perfetto / chrome://tracing
//   --metrics-out FILE write the flat metrics snapshot JSON (counters plus
//                      per-worker latency/batch histograms)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "core/dcdatalog.h"
#include "core/trace_export.h"
#include "datalog/analysis.h"
#include "graph/generators.h"
#include "server/server.h"
#include "storage/text_io.h"
#include "storage/updates.h"

namespace dcdatalog {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dcd run <program.dl> --rel name=path[:spec] ...\n"
               "       dcd explain <program.dl> --rel ...\n"
               "       dcd generate <kind>:<args> <path> [--weights W]\n"
               "       dcd serve --rel name=path:spec ... [--port N]\n"
               "see the header of tools/dcd_cli.cc for all options\n");
  return 2;
}

struct Options {
  std::string program_path;
  std::vector<std::pair<std::string, std::string>> relations;  // name=path[:spec]
  std::vector<std::pair<std::string, std::string>> outputs;    // pred=path
  EngineOptions engine;
  bool stats = false;
  uint64_t seed = 42;
  int64_t weights = 0;
  std::string trace_out;
  std::string metrics_out;
  std::string updates_path;
  // serve-only:
  uint32_t port = 0;
  std::string port_file;
  uint32_t pool_capacity = 0;
  uint32_t update_interval_ms = 100;
};

bool ParseCommon(int argc, char** argv, int start, Options* opts) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--rel") {
      const char* v = next();
      if (!v) return false;
      std::string s(v);
      size_t eq = s.find('=');
      if (eq == std::string::npos) return false;
      opts->relations.emplace_back(s.substr(0, eq), s.substr(eq + 1));
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return false;
      std::string s(v);
      size_t eq = s.find('=');
      if (eq == std::string::npos) return false;
      opts->outputs.emplace_back(s.substr(0, eq), s.substr(eq + 1));
    } else if (arg == "--workers") {
      // Checked parse: std::atoi would silently turn "abc" or "4x" into a
      // number and run the evaluation with a nonsensical worker count.
      const char* v = next();
      uint32_t workers = 0;
      if (!v || !ParseUint32Checked(v, 1, 4096, &workers)) {
        std::fprintf(stderr,
                     "--workers expects an integer in [1, 4096], got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
      opts->engine.num_workers = workers;
    } else if (arg == "--mode") {
      const char* v = next();
      if (!v) return false;
      if (std::strcmp(v, "global") == 0) {
        opts->engine.coordination = CoordinationMode::kGlobal;
      } else if (std::strcmp(v, "ssp") == 0) {
        opts->engine.coordination = CoordinationMode::kSsp;
      } else if (std::strcmp(v, "dws") == 0) {
        opts->engine.coordination = CoordinationMode::kDws;
      } else {
        return false;
      }
    } else if (arg == "--slack") {
      const char* v = next();
      uint32_t slack = 0;
      if (!v || !ParseUint32Checked(v, 1, 1000000, &slack)) {
        std::fprintf(
            stderr, "--slack expects an integer in [1, 1000000], got '%s'\n",
            v ? v : "(nothing)");
        return false;
      }
      opts->engine.ssp_slack = slack;
    } else if (arg == "--no-agg-index") {
      opts->engine.enable_aggregate_index = false;
    } else if (arg == "--no-cache") {
      opts->engine.enable_existence_cache = false;
    } else if (arg == "--no-partial-agg") {
      opts->engine.enable_partial_aggregation = false;
    } else if (arg == "--merge-index-backend") {
      const char* v = next();
      if (v && std::strcmp(v, "flat") == 0) {
        opts->engine.merge_index_backend = MergeIndexBackend::kFlat;
      } else if (v && std::strcmp(v, "btree") == 0) {
        opts->engine.merge_index_backend = MergeIndexBackend::kBtree;
      } else {
        std::fprintf(stderr,
                     "--merge-index-backend expects flat|btree, got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
    } else if (arg == "--pipeline-executor") {
      const char* v = next();
      if (v && std::strcmp(v, "batch") == 0) {
        opts->engine.pipeline_executor = PipelineExecutor::kBatch;
      } else if (v && std::strcmp(v, "tuple") == 0) {
        opts->engine.pipeline_executor = PipelineExecutor::kTuple;
      } else {
        std::fprintf(stderr,
                     "--pipeline-executor expects batch|tuple, got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
    } else if (arg == "--steal") {
      const char* v = next();
      if (v && std::strcmp(v, "on") == 0) {
        opts->engine.enable_steal = true;
      } else if (v && std::strcmp(v, "off") == 0) {
        opts->engine.enable_steal = false;
      } else {
        std::fprintf(stderr, "--steal expects on|off, got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
    } else if (arg == "--numa") {
      const char* v = next();
      if (v && std::strcmp(v, "auto") == 0) {
        opts->engine.numa = NumaMode::kAuto;
      } else if (v && std::strcmp(v, "off") == 0) {
        opts->engine.numa = NumaMode::kOff;
      } else {
        std::fprintf(stderr, "--numa expects auto|off, got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
    } else if (arg == "--stats") {
      opts->stats = true;
    } else if (arg == "--seed") {
      const char* v = next();
      uint64_t seed = 0;
      if (!v || !ParseUint64Checked(v, 0, UINT64_MAX, &seed)) {
        std::fprintf(stderr, "--seed expects a non-negative integer, got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
      opts->seed = seed;
    } else if (arg == "--weights") {
      const char* v = next();
      int64_t weights = 0;
      if (!v || !ParseInt64Checked(v, 0, INT64_MAX, &weights)) {
        std::fprintf(stderr,
                     "--weights expects a non-negative integer, got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
      opts->weights = weights;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v || *v == '\0') return false;
      opts->trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v || *v == '\0') return false;
      opts->metrics_out = v;
    } else if (arg == "--updates") {
      const char* v = next();
      if (!v || *v == '\0') return false;
      opts->updates_path = v;
    } else if (arg == "--port") {
      const char* v = next();
      uint32_t port = 0;
      if (!v || !ParseUint32Checked(v, 0, 65535, &port)) {
        std::fprintf(stderr,
                     "--port expects an integer in [0, 65535], got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
      opts->port = port;
    } else if (arg == "--port-file") {
      const char* v = next();
      if (!v || *v == '\0') return false;
      opts->port_file = v;
    } else if (arg == "--pool") {
      const char* v = next();
      uint32_t pool = 0;
      if (!v || !ParseUint32Checked(v, 1, 4096, &pool)) {
        std::fprintf(stderr,
                     "--pool expects an integer in [1, 4096], got '%s'\n",
                     v ? v : "(nothing)");
        return false;
      }
      opts->pool_capacity = pool;
    } else if (arg == "--update-interval-ms") {
      const char* v = next();
      uint32_t interval = 0;
      if (!v || !ParseUint32Checked(v, 0, 3600000, &interval)) {
        std::fprintf(
            stderr,
            "--update-interval-ms expects an integer in [0, 3600000], "
            "got '%s'\n",
            v ? v : "(nothing)");
        return false;
      }
      opts->update_interval_ms = interval;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  // A trace destination implies tracing; nobody wants an empty file.
  if (!opts->trace_out.empty()) opts->engine.enable_trace = true;
  return true;
}

/// Infers arities of base relations from the parsed program so --rel specs
/// may omit the type string for all-int relations.
std::map<std::string, uint32_t> InferArities(const Program& program) {
  std::map<std::string, uint32_t> arity;
  std::map<std::string, bool> is_head;
  for (const Rule& rule : program.rules) is_head[rule.head.predicate] = true;
  for (const Rule& rule : program.rules) {
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind != BodyLiteral::Kind::kAtom) continue;
      if (!is_head[lit.atom.predicate]) {
        arity[lit.atom.predicate] =
            static_cast<uint32_t>(lit.atom.args.size());
      }
    }
  }
  return arity;
}

int LoadRelations(DCDatalog* db, const Options& opts) {
  std::map<std::string, uint32_t> arities;
  if (db->program() != nullptr) arities = InferArities(*db->program());
  for (const auto& [name, path_spec] : opts.relations) {
    std::string path = path_spec;
    std::string spec;
    size_t colon = path_spec.rfind(':');
    // A trailing :spec is only a spec if it is a plausible type string.
    if (colon != std::string::npos && colon + 1 < path_spec.size()) {
      std::string tail = path_spec.substr(colon + 1);
      if (tail.find_first_not_of("ids") == std::string::npos) {
        spec = tail;
        path = path_spec.substr(0, colon);
      }
    }
    Schema schema;
    if (!spec.empty()) {
      auto parsed = ParseSchemaSpec(spec);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      schema = parsed.value();
    } else {
      auto it = arities.find(name);
      if (it == arities.end()) {
        std::fprintf(stderr,
                     "cannot infer arity of '%s'; add :spec (e.g. %s=%s:ii)\n",
                     name.c_str(), name.c_str(), path.c_str());
        return 1;
      }
      schema = Schema::Ints(it->second);
    }
    auto rel = LoadRelationFile(name, schema, path, &db->dict());
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s: %llu facts\n", name.c_str(),
                 static_cast<unsigned long long>(rel.value().size()));
    db->catalog().Put(std::move(rel).value());
  }
  return 0;
}

int CmdRun(const Options& opts) {
  DCDatalog db(opts.engine);
  Status st = db.LoadProgramFile(opts.program_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (int rc = LoadRelations(&db, opts); rc != 0) return rc;

  Result<EvalStats> stats =
      opts.updates_path.empty() ? db.Run() : db.BeginIncremental();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  if (opts.stats) {
    std::fprintf(stderr, "%s\n", stats.value().ToString().c_str());
  }
  if (!opts.updates_path.empty()) {
    auto script = LoadUpdateScriptFile(opts.updates_path);
    if (!script.ok()) {
      std::fprintf(stderr, "%s\n", script.status().ToString().c_str());
      return 1;
    }
    for (size_t b = 0; b < script.value().batches.size(); ++b) {
      auto bstats = db.ApplyUpdates(script.value().batches[b]);
      if (!bstats.ok()) {
        std::fprintf(stderr, "batch %zu: %s\n", b,
                     bstats.status().ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "batch %zu: %llu delta tuples in %.6fs\n", b,
                   static_cast<unsigned long long>(
                       bstats.value().delta_tuples_in),
                   bstats.value().seconds);
      if (opts.stats) {
        std::fprintf(stderr, "%s\n", bstats.value().ToString().c_str());
      }
    }
  }
  if (!opts.trace_out.empty()) {
    Status w = WriteChromeTraceFile(stats.value(), opts.trace_out);
    if (!w.ok()) {
      std::fprintf(stderr, "%s\n", w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace (%llu events, %llu dropped) to %s\n",
                 static_cast<unsigned long long>(stats.value().trace.size()),
                 static_cast<unsigned long long>(stats.value().trace_dropped),
                 opts.trace_out.c_str());
  }
  if (!opts.metrics_out.empty()) {
    Status w = WriteMetricsJsonFile(stats.value(), opts.metrics_out);
    if (!w.ok()) {
      std::fprintf(stderr, "%s\n", w.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote metrics to %s\n", opts.metrics_out.c_str());
  }

  // Which predicates to surface: --out wins; else .output; else all IDB.
  std::vector<std::string> to_print;
  if (!opts.outputs.empty()) {
    for (const auto& [pred, path] : opts.outputs) {
      const Relation* rel = db.ResultFor(pred);
      if (rel == nullptr) {
        std::fprintf(stderr, "no such result predicate: %s\n", pred.c_str());
        return 1;
      }
      Status w = WriteRelationFile(*rel, path, &db.dict());
      if (!w.ok()) {
        std::fprintf(stderr, "%s\n", w.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (%llu rows) to %s\n", pred.c_str(),
                   static_cast<unsigned long long>(rel->size()),
                   path.c_str());
    }
    return 0;
  }
  to_print = db.program()->outputs;
  if (to_print.empty()) {
    std::map<std::string, bool> heads;
    for (const Rule& rule : db.program()->rules) {
      heads[rule.head.predicate] = true;
    }
    for (const auto& [name, unused] : heads) to_print.push_back(name);
  }
  for (const std::string& pred : to_print) {
    const Relation* rel = db.ResultFor(pred);
    if (rel == nullptr) continue;
    std::printf("%s\n", rel->ToString(50).c_str());
  }
  return 0;
}

int CmdServe(const Options& opts) {
  ServerOptions server_opts;
  server_opts.port = static_cast<uint16_t>(opts.port);
  server_opts.pool_capacity = opts.pool_capacity;
  server_opts.engine = opts.engine;
  DcdServer server(server_opts);

  // Serve mode has no program to infer arities from, so every --rel must
  // carry an explicit :spec.
  for (const auto& [name, path_spec] : opts.relations) {
    const size_t colon = path_spec.rfind(':');
    std::string spec;
    std::string path = path_spec;
    if (colon != std::string::npos && colon + 1 < path_spec.size()) {
      const std::string tail = path_spec.substr(colon + 1);
      if (tail.find_first_not_of("ids") == std::string::npos) {
        spec = tail;
        path = path_spec.substr(0, colon);
      }
    }
    if (spec.empty()) {
      std::fprintf(stderr,
                   "serve mode needs an explicit spec: %s=%s:<spec>\n",
                   name.c_str(), path.c_str());
      return 1;
    }
    auto schema = ParseSchemaSpec(spec);
    if (!schema.ok()) {
      std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
      return 1;
    }
    auto rel = LoadRelationFile(name, schema.value(), path,
                                server.store()->dict());
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s: %llu facts\n", name.c_str(),
                 static_cast<unsigned long long>(rel.value().size()));
    server.store()->PutRelation(std::move(rel).value());
  }

  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "dcd serve: listening on 127.0.0.1:%u (pool=%u)\n",
               server.port(), server.pool()->capacity());
  if (!opts.port_file.empty()) {
    std::FILE* f = std::fopen(opts.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write port file: %s\n",
                   opts.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  // Optional update stream: feed the script's batches into the store on a
  // timer, copy-on-write — running sessions keep their pinned snapshots.
  std::atomic<bool> stop_updates{false};
  std::thread updater;
  if (!opts.updates_path.empty()) {
    auto script = LoadUpdateScriptFile(opts.updates_path);
    if (!script.ok()) {
      std::fprintf(stderr, "%s\n", script.status().ToString().c_str());
      return 1;
    }
    updater = std::thread([&server, &stop_updates,
                           script = std::move(script).value(),
                           interval_ms = opts.update_interval_ms] {
      for (const UpdateBatch& batch : script.batches) {
        if (stop_updates.load(std::memory_order_acquire)) return;
        auto applied = server.store()->ApplyBatch(batch);
        if (!applied.ok()) {
          std::fprintf(stderr, "update batch failed: %s\n",
                       applied.status().ToString().c_str());
          return;
        }
        std::fprintf(stderr, "applied update batch -> store version %llu\n",
                     static_cast<unsigned long long>(
                         applied.value().version));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
      }
    });
  }

  while (!server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "dcd serve: shutdown requested\n");
  stop_updates.store(true, std::memory_order_release);
  if (updater.joinable()) updater.join();
  server.Stop();
  return 0;
}

int CmdExplain(const Options& opts) {
  DCDatalog db(opts.engine);
  Status st = db.LoadProgramFile(opts.program_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (int rc = LoadRelations(&db, opts); rc != 0) return rc;
  auto logical = db.ExplainLogical();
  if (!logical.ok()) {
    std::fprintf(stderr, "%s\n", logical.status().ToString().c_str());
    return 1;
  }
  std::printf("--- analysis & logical plans ---\n%s\n",
              logical.value().c_str());
  auto physical = db.ExplainPhysical();
  if (!physical.ok()) {
    std::fprintf(stderr, "%s\n", physical.status().ToString().c_str());
    return 1;
  }
  std::printf("--- physical plan ---\n%s", physical.value().c_str());
  return 0;
}

int CmdGenerate(const std::string& kind_spec, const std::string& path,
                const Options& opts) {
  // kind:arg1[:arg2]
  std::vector<std::string> parts;
  std::string cur;
  for (char c : kind_spec) {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  const std::string& kind = parts[0];
  // Numeric kind arguments are checked before anything is generated:
  // "gnp:1e3" must fail, not become a graph of one vertex.
  const size_t real_at = kind == "gnp" ? 2 : kind == "zipf" ? 3 : 0;
  for (size_t i = 1; i < parts.size(); ++i) {
    uint64_t count = 0;
    double real = 0;
    const bool ok =
        i == real_at
            ? ParseDoubleChecked(parts[i].c_str(), &real)
            : ParseUint64Checked(parts[i].c_str(), 0, UINT64_MAX, &count);
    if (!ok) {
      std::fprintf(stderr, "bad numeric argument '%s' in %s\n",
                   parts[i].c_str(), kind_spec.c_str());
      return 2;
    }
  }
  auto arg = [&](size_t i, uint64_t def) -> uint64_t {
    return parts.size() > i ? std::strtoull(parts[i].c_str(), nullptr, 10)
                            : def;
  };

  Graph g;
  if (kind == "rmat") {
    g = GenerateRmat(arg(1, 1024), opts.seed, arg(2, 10));
  } else if (kind == "tree") {
    g = GenerateRandomTree(static_cast<uint32_t>(arg(1, 8)), opts.seed);
  } else if (kind == "gnp") {
    double p = parts.size() > 2 ? std::atof(parts[2].c_str()) : 0.001;
    g = GenerateGnp(arg(1, 1000), p, opts.seed);
  } else if (kind == "social") {
    g = GenerateSocialGraph(arg(1, 10000), arg(2, 10), opts.seed);
  } else if (kind == "ntree") {
    g = GenerateLeveledTree(arg(1, 10000), opts.seed);
  } else if (kind == "star") {
    g = GenerateStarHub(arg(1, 1024), opts.seed);
  } else if (kind == "zipf") {
    double alpha = parts.size() > 3 ? std::atof(parts[3].c_str()) : 1.0;
    g = GenerateZipfDegree(arg(1, 10000), alpha, arg(2, 1000), opts.seed);
  } else {
    std::fprintf(stderr, "unknown generator kind: %s\n", kind.c_str());
    return 2;
  }
  if (opts.weights > 0) AssignRandomWeights(&g, opts.weights, opts.seed);
  Status st = SaveEdgeList(g, path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %llu vertices / %llu edges to %s\n",
               static_cast<unsigned long long>(g.num_vertices()),
               static_cast<unsigned long long>(g.num_edges()), path.c_str());
  return 0;
}

}  // namespace
}  // namespace dcdatalog

int main(int argc, char** argv) {
  using namespace dcdatalog;
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Options opts;

  if (cmd == "serve") {
    if (!ParseCommon(argc, argv, 2, &opts)) return Usage();
    return CmdServe(opts);
  }
  if (argc < 3) return Usage();
  if (cmd == "run" || cmd == "explain") {
    opts.program_path = argv[2];
    if (!ParseCommon(argc, argv, 3, &opts)) return Usage();
    return cmd == "run" ? CmdRun(opts) : CmdExplain(opts);
  }
  if (cmd == "generate") {
    if (argc < 4) return Usage();
    if (!ParseCommon(argc, argv, 4, &opts)) return Usage();
    return CmdGenerate(argv[2], argv[3], opts);
  }
  return Usage();
}
