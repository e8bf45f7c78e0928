// DCDatalog benchmark harness: one workload per invocation, driven through
// the public DCDatalog API from one process with at most four workers.
//
//   dcd_perfbench --workload cc-social|tc-updates --seed N --seconds S
//                 --trace 0|1 --out-dir DIR [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// a separate run that times each layer's public entry points from outside
// (storage, datalog, planner, runtime, concurrent) and reads the engine's
// EvalStats counters and trace spans (core, trace). Every evaluation's
// result is fingerprinted and checked; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, preceded by a
// "detail" line with provenance and per-metric sample counts and spreads.
// README.md in this directory explains the workloads and metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/random.h"
#include "common/status.h"
#include "concurrent/spsc_queue.h"
#include "core/dcdatalog.h"
#include "core/reference.h"
#include "core/trace_export.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "graph/generators.h"
#include "planner/logical_plan.h"
#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/message.h"
#include "runtime/recursive_table.h"
#include "storage/text_io.h"
#include "storage/updates.h"

#ifndef DCD_PERFBENCH_BUILD_TYPE
#define DCD_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DCD_PERFBENCH_COMPILER
#define DCD_PERFBENCH_COMPILER "unknown"
#endif
#ifndef DCD_PERFBENCH_ROOT
#define DCD_PERFBENCH_ROOT "."
#endif

namespace dcdatalog {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Statistics -------------------------------------------------------------

/// Linearly interpolated quantile (q in [0, 1]) of `v`.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Interquartile range as a share of the median: the run's own spread.
double Spread(const std::vector<double>& v) {
  const double med = Median(v);
  return med > 0 ? (Quantile(v, 0.75) - Quantile(v, 0.25)) / med : 0.0;
}

// --- Output -----------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Metrics of one run, in insertion order, each with the samples it is the
/// median (or percentile) of, for the detail line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1, double spread = 0.0,
           std::vector<double> raw = {}) {
    entries_.push_back({name, value, unit, samples, spread, std::move(raw)});
  }
  void AddSamples(const std::string& name, std::vector<double> samples,
                  const std::string& unit, double scale = 1.0) {
    for (double& v : samples) v *= scale;
    Add(name, Median(samples), unit, samples.size(), Spread(samples),
        samples);
  }
  void Info(const std::string& key, const std::string& json_value) {
    info_.emplace_back(key, json_value);
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::ostringstream detail;
    detail << "{\"detail\": {";
    for (const auto& [key, value] : info_) {
      detail << "\"" << key << "\": " << value << ", ";
    }
    detail << "\"samples\": {";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      detail << (i ? ", " : "") << "\"" << e.name << "\": {\"n\": "
             << e.samples << ", \"spread\": " << Num(e.spread);
      if (!e.raw.empty()) {
        detail << ", \"values\": [";
        for (size_t j = 0; j < e.raw.size(); ++j) {
          detail << (j ? ", " : "") << Num(e.raw[j]);
        }
        detail << "]";
      }
      detail << "}";
    }
    detail << "}}}";
    std::printf("%s\n", detail.str().c_str());

    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
          << Num(e.value) << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
    double spread;
    std::vector<double> raw;  // In sample order.
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Operations attempted and failed. A non-OK Status or a result that
/// disagrees with its reference counts as one failed operation; the first
/// few failures are kept for the detail line and the closing stderr summary.
struct Ledger {
  static constexpr size_t kKeptFailures = 8;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // The first kKeptFailures, in order.

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
      if (failures.size() < kKeptFailures) failures.push_back(what);
    }
    return ok;
  }
  bool Check(const Status& st, const std::string& what) {
    return Check(st.ok(), what + ": " + st.ToString());
  }
};

// --- Results ----------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Row count plus an order-independent hash of the rows: two evaluations
/// that produce the same set of tuples in any order agree.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const Relation* rel) {
  Fingerprint fp{UINT64_MAX, 0};
  if (rel == nullptr) return fp;
  fp.rows = rel->size();
  for (uint64_t r = 0; r < rel->size(); ++r) {
    const TupleRef row = rel->Row(r);
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (uint32_t c = 0; c < row.arity; ++c) h = Mix(h ^ row.data[c]);
    fp.hash += h;
  }
  return fp;
}

/// Checks that `db`'s current result for `output` equals `expect`.
bool CheckResult(const DCDatalog& db, const std::string& output,
                 const Fingerprint& expect, Ledger* ledger,
                 const std::string& what) {
  const Fingerprint fp = FingerprintOf(db.ResultFor(output));
  return ledger->Check(fp == expect,
                       what + ": result differs (" + std::to_string(fp.rows) +
                           " rows, expected " + std::to_string(expect.rows) +
                           ")");
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Workloads --------------------------------------------------------------

using Edge2 = std::pair<uint64_t, uint64_t>;

constexpr int kUpdateBatchEdges = 10;

uint64_t EdgeKey(uint64_t s, uint64_t d) { return (s << 32) | d; }

/// The update script's source of insert batches over one graph: each batch
/// is kUpdateBatchEdges uniformly random edges between existing vertices,
/// absent from the graph and from every batch drawn since NewRound().
class FreshEdges {
 public:
  FreshEdges(const Graph& g, uint64_t seed)
      : num_vertices_(g.num_vertices()), rng_(seed) {
    for (const Edge& e : g.edges()) base_.insert(EdgeKey(e.src, e.dst));
  }

  void NewRound() { drawn_.clear(); }

  std::vector<Edge2> Draw() {
    std::vector<Edge2> out;
    while (out.size() < kUpdateBatchEdges) {
      const Edge2 e{rng_.Uniform(num_vertices_), rng_.Uniform(num_vertices_)};
      const uint64_t key = EdgeKey(e.first, e.second);
      if (e.first == e.second || base_.count(key) != 0 ||
          !drawn_.insert(key).second) {
        continue;
      }
      out.push_back(e);
    }
    return out;
  }

 private:
  uint64_t num_vertices_;
  Rng rng_;
  std::unordered_set<uint64_t> base_;
  std::unordered_set<uint64_t> drawn_;
};

/// One benchmark instance: the program, the EDB graph (fully determined by
/// the seed), the predicate whose result is checked, the recursive predicate
/// whose rows the merge replay uses, and the shape of one round.
struct Workload {
  std::string name;
  std::string program_text;
  std::string output;     // Checked result predicate.
  std::string recursive;  // Predicate of the recursive SCC.
  Graph graph;
  Graph reduced;          // Small instance for the reference oracle.
  int evals_per_round = 1;    // Warm evaluations of each configuration.
  int inserts_per_round = 1;  // 10-edge insert batches; one is deleted.
};

constexpr uint64_t kSocialVertices = 50000;
constexpr uint64_t kSocialDegree = 10;
// Mean degree ~4.8: one strongly connected component spans almost every
// vertex for any seed, so the closure size (~n^2) does not vary by seed.
constexpr uint64_t kGnpVertices = 600;
constexpr double kGnpP = 0.008;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  std::string program;
  if (name == "cc-social") {
    program = "cc.dl";
    w.output = "cc";
    w.recursive = "cc2";
    w.graph = GenerateSocialGraph(kSocialVertices, kSocialDegree, seed);
    w.reduced = GenerateSocialGraph(600, kSocialDegree, seed);
    // Inserts and deletes under the consumed min aggregate fall back to a
    // recompute (~0.4 s each).
    w.evals_per_round = 2;
  } else if (name == "tc-updates") {
    program = "tc.dl";
    w.output = "tc";
    w.recursive = "tc";
    w.graph = GenerateGnp(kGnpVertices, kGnpP, seed);
    w.reduced = GenerateGnp(120, 0.012, seed);
    // Inserts take ~1 ms; a DRed delete re-derives nearly the whole closure.
    w.evals_per_round = 2;
    w.inserts_per_round = 16;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  DCD_ASSIGN_OR_RETURN(
      w.program_text,
      ReadFile(std::string(DCD_PERFBENCH_ROOT) + "/examples/queries/" +
               program));
  return w;
}

// --- Instances --------------------------------------------------------------

EngineOptions Opts(uint32_t workers, CoordinationMode mode) {
  EngineOptions o;
  o.num_workers = workers;
  o.coordination = mode;
  return o;
}

/// Fact file on disk → ready instance: LoadRelationFile into the catalog,
/// LoadProgramText, and (when `incremental`) BeginIncremental, the initial
/// fixpoint with the state later update batches maintain.
Result<std::unique_ptr<DCDatalog>> SetUp(const EngineOptions& opts,
                                         const std::string& fact_path,
                                         const std::string& program,
                                         bool incremental) {
  auto db = std::make_unique<DCDatalog>(opts);
  DCD_ASSIGN_OR_RETURN(Relation arc, LoadRelationFile("arc", Schema::Ints(2),
                                                      fact_path, &db->dict()));
  db->catalog().Put(std::move(arc));
  DCD_RETURN_IF_ERROR(db->LoadProgramText(program));
  if (incremental) DCD_RETURN_IF_ERROR(db->BeginIncremental().status());
  return db;
}

ResolvedUpdateBatch MakeBatch(const std::vector<Edge2>& edges, bool insert) {
  ResolvedUpdateBatch batch;
  for (const auto& [s, d] : edges) {
    batch.ops.push_back({insert, "arc", {s, d}});
  }
  return batch;
}

/// Evaluates once with `opts`. Returns the result's fingerprint, or nullopt
/// if the run failed; `*secs` gets the wall time.
std::optional<Fingerprint> Evaluate(DCDatalog* db, const EngineOptions& opts,
                                    const std::string& output, Ledger* ledger,
                                    const std::string& what, double* secs,
                                    EvalStats* stats_out = nullptr) {
  db->options() = opts;
  const auto start = Clock::now();
  Result<EvalStats> run = db->Run();
  *secs = Since(start);
  if (!ledger->Check(run.status(), what)) return std::nullopt;
  if (stats_out != nullptr) *stats_out = std::move(run).value();
  return FingerprintOf(db->ResultFor(output));
}

/// The reference result of `db`'s EDB: a 1-worker evaluation, which
/// involves no coordination between workers.
std::optional<Fingerprint> Reference(DCDatalog* db, const std::string& output,
                                     Ledger* ledger) {
  double secs = 0;
  return Evaluate(db, Opts(1, CoordinationMode::kDws), output, ledger,
                  "reference run (1 worker)", &secs);
}

/// Evaluates once with `opts` and checks the result against `expect`.
/// Returns wall seconds, or -1 if the run failed or the result differs.
double TimedRun(DCDatalog* db, const EngineOptions& opts,
                const std::string& output, const Fingerprint& expect,
                Ledger* ledger, const std::string& what,
                EvalStats* stats_out = nullptr) {
  double secs = 0;
  const auto fp = Evaluate(db, opts, output, ledger, what, &secs, stats_out);
  if (!fp.has_value()) return -1.0;
  if (!ledger->Check(*fp == expect,
                     what + ": result differs (" + std::to_string(fp->rows) +
                         " rows, expected " + std::to_string(expect.rows) +
                         ")")) {
    return -1.0;
  }
  return secs;
}

/// Checks the engine against ReferenceEvaluate on the workload's reduced
/// instance: a from-scratch run at every configuration, then an
/// incremental session after a few insert/delete batches.
void CheckOracle(const Workload& w, uint32_t workers, uint64_t seed,
                 Ledger* ledger) {
  DCDatalog db(Opts(workers, CoordinationMode::kDws));
  db.AddGraph(w.reduced, "arc");
  if (!ledger->Check(db.LoadProgramText(w.program_text), "oracle load")) {
    return;
  }
  auto expected = [&](const char* what) -> Fingerprint {
    Catalog edb;  // The oracle sees the base relation only.
    edb.Put(*db.catalog().Find("arc"));
    auto ref = ReferenceEvaluate(*db.program(), edb);
    if (!ledger->Check(ref.status(), std::string("reference ") + what)) {
      return {};
    }
    auto it = ref.value().find(w.output);
    return it == ref.value().end() ? Fingerprint{} : FingerprintOf(&it->second);
  };
  const Fingerprint want = expected("scratch");
  for (const auto& [n, mode] :
       {std::pair{1u, CoordinationMode::kDws},
        std::pair{workers, CoordinationMode::kDws},
        std::pair{workers, CoordinationMode::kGlobal}}) {
    TimedRun(&db, Opts(n, mode), w.output, want, ledger, "oracle scratch run");
  }
  db.options() = Opts(workers, CoordinationMode::kDws);
  if (!ledger->Check(db.BeginIncremental().status(), "oracle incremental")) {
    return;
  }
  FreshEdges fresh(w.reduced, seed ^ 0x5eedULL);
  for (int round = 0; round < 3; ++round) {
    const auto edges = fresh.Draw();
    ledger->Check(db.ApplyUpdates(MakeBatch(edges, true)).status(),
                  "oracle insert");
    // Delete half of each batch so both paths leave a trace in the EDB.
    std::vector<Edge2> gone(edges.begin(), edges.begin() + edges.size() / 2);
    ledger->Check(db.ApplyUpdates(MakeBatch(gone, false)).status(),
                  "oracle delete");
  }
  CheckResult(db, w.output, expected("after updates"), ledger,
              "oracle incremental result");
}

/// One round of the update script on a freshly set-up incremental instance
/// `db`: inserts_per_round batches of fresh edges, then one batch deleting
/// the last of them again. The delete must restore the result from before
/// the last insert, and when the final EDB differs from the set-up one, a
/// from-scratch Run() over it must equal the maintained result. With
/// `check_inserts`, the result after the last insert is also compared with
/// a from-scratch run over the same EDB (the incremental session is then
/// begun again).
struct UpdateRound {
  std::vector<double> insert_s;
  double delete_s = -1.0;
  uint64_t delta_tuples_in = 0;
  uint64_t rederived_tuples = 0;
};

UpdateRound RunUpdateRound(DCDatalog* db, const Workload& w,
                           const EngineOptions& opts, FreshEdges* fresh,
                           bool check_inserts, Ledger* ledger) {
  UpdateRound round;
  fresh->NewRound();
  Fingerprint restored;  // The result before the last insert batch.
  std::vector<Edge2> last;
  for (int b = 0; b < w.inserts_per_round; ++b) {
    last = fresh->Draw();
    if (b + 1 == w.inserts_per_round) {
      restored = FingerprintOf(db->ResultFor(w.output));
    }
    const auto start = Clock::now();
    auto ins = db->ApplyUpdates(MakeBatch(last, true));
    const double secs = Since(start);
    if (!ledger->Check(ins.status(), "insert batch")) return round;
    round.insert_s.push_back(secs);
    round.delta_tuples_in += ins.value().delta_tuples_in;
  }
  if (check_inserts) {
    const Fingerprint inserted = FingerprintOf(db->ResultFor(w.output));
    TimedRun(db, opts, w.output, inserted, ledger,
             "scratch run vs maintained result after inserts");
    if (!ledger->Check(db->BeginIncremental().status(), "begin incremental") ||
        !CheckResult(*db, w.output, inserted, ledger,
                     "incremental session begun again")) {
      return round;
    }
  }
  const auto start = Clock::now();
  auto del = db->ApplyUpdates(MakeBatch(last, false));
  const double secs = Since(start);
  if (!ledger->Check(del.status(), "delete batch")) return round;
  round.delete_s = secs;
  round.delta_tuples_in += del.value().delta_tuples_in;
  round.rederived_tuples = del.value().rederived_tuples;
  CheckResult(*db, w.output, restored, ledger,
              "maintained result after delete");
  // With one insert batch the EDB is the set-up one again, whose result
  // NewSession checked; otherwise compare with a scratch run over it.
  if (w.inserts_per_round > 1) {
    TimedRun(db, opts, w.output, FingerprintOf(db->ResultFor(w.output)),
             ledger, "scratch run vs maintained result after the script");
  }
  return round;
}

/// A fresh instance ready for reads and updates, its result checked against
/// `expect`. `*secs` gets the set-up time, -1 if it failed.
std::unique_ptr<DCDatalog> NewSession(const Workload& w,
                                      const EngineOptions& opts,
                                      const std::string& fact_path,
                                      const Fingerprint& expect,
                                      Ledger* ledger, double* secs) {
  const auto start = Clock::now();
  auto db = SetUp(opts, fact_path, w.program_text, true);
  *secs = Since(start);
  if (!ledger->Check(db.status(), "setup") ||
      !CheckResult(*db.value(), w.output, expect, ledger, "setup")) {
    *secs = -1.0;
  }
  return db.ok() ? std::move(db).value() : nullptr;
}

// --- End-to-end run ---------------------------------------------------------

struct Budget {
  Clock::time_point start = Clock::now();
  double seconds;
  explicit Budget(double s) : seconds(s) {}
  bool Left() const { return Since(start) < seconds; }
};

/// Progress on stderr: elapsed process time at the start of each phase.
void Phase(const char* name) {
  static const Clock::time_point process_start = Clock::now();
  std::fprintf(stderr, "[perfbench] %7.2fs %s\n", Since(process_start), name);
}

void RunEndToEnd(const Workload& w, uint32_t n, const std::string& fact_path,
                 double seconds, uint64_t seed, Ledger* ledger,
                 Report* report) {
  const EngineOptions dws = Opts(n, CoordinationMode::kDws);

  Phase("reference");
  auto db_or = SetUp(dws, fact_path, w.program_text, false);
  if (!ledger->Check(db_or.status(), "setup")) return;
  std::unique_ptr<DCDatalog> db = std::move(db_or).value();
  const std::optional<Fingerprint> ref =
      Reference(db.get(), w.output, ledger);
  if (!ref.has_value()) return;
  const std::vector<std::pair<std::string, EngineOptions>> configs = {
      {"eval_s", dws},
      {"eval_1w_s", Opts(1, CoordinationMode::kDws)},
      {"eval_global_s", Opts(n, CoordinationMode::kGlobal)}};
  // The cold first evaluation of each configuration is checked, not timed.
  for (const auto& [name, opts] : configs) {
    TimedRun(db.get(), opts, w.output, *ref, ledger, name + " cold");
  }

  // Rounds until the budget is spent. Each round sets up a fresh instance
  // (setup_s), evaluates every configuration on the long-lived instance,
  // and runs one round of the update script on the fresh one, so every
  // metric is sampled across the whole run and a slow phase of the host
  // affects all of them alike. Round 0 is a warm-up.
  Phase("rounds");
  std::vector<double> setup, inserts, deletes;
  std::vector<std::vector<double>> evals(configs.size());
  FreshEdges fresh(w.graph, seed ^ 0x0dd5ULL);
  std::unique_ptr<DCDatalog> session;
  int rounds = 0;
  for (Budget budget(seconds); rounds < 3 || budget.Left(); ++rounds) {
    const bool warm = rounds > 0;
    session.reset();  // Only one fresh instance is alive at a time.
    double secs = 0;
    session = NewSession(w, dws, fact_path, *ref, ledger, &secs);
    if (warm && secs >= 0) setup.push_back(secs);
    for (int e = 0; e < w.evals_per_round; ++e) {
      for (size_t c = 0; c < configs.size(); ++c) {
        secs = TimedRun(db.get(), configs[c].second, w.output, *ref, ledger,
                        configs[c].first);
        if (warm && secs >= 0) evals[c].push_back(secs);
      }
    }
    if (session == nullptr) continue;
    const UpdateRound r = RunUpdateRound(session.get(), w, dws, &fresh,
                                         /*check_inserts=*/!warm, ledger);
    if (warm) {
      inserts.insert(inserts.end(), r.insert_s.begin(), r.insert_s.end());
      if (r.delete_s >= 0) deletes.push_back(r.delete_s);
    }
  }
  report->AddSamples("setup_s", setup, "s");
  for (size_t c = 0; c < configs.size(); ++c) {
    report->AddSamples(configs[c].first, evals[c], "s");
  }
  report->AddSamples("insert_ms", inserts, "ms", 1e3);
  // Reported in the detail line only: its run-to-run spread is wider than
  // the largest bound the benchmark may set (see README.md).
  report->Info("insert_p90_ms",
               "{\"value\": " + Num(Quantile(inserts, 0.9) * 1e3) +
                   ", \"unit\": \"ms\", \"n\": " +
                   std::to_string(inserts.size()) + "}");
  report->AddSamples("delete_ms", deletes, "ms", 1e3);
  report->Info("rounds", std::to_string(rounds));
  report->Info("result_rows", std::to_string(ref->rows));
  session.reset();
  db.reset();
  report->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

// --- Traced run -------------------------------------------------------------

/// Repeats `fn`, which returns one timed sample (negative on failure),
/// until `seconds` pass and at least four times; the first call is a
/// warm-up and is dropped.
std::vector<double> Repeat(double seconds, const std::function<double()>& fn) {
  std::vector<double> out;
  Budget budget(seconds);
  for (int i = 0; i < 4 || (budget.Left() && i < 10000); ++i) {
    const double secs = fn();
    if (i > 0 && secs >= 0) out.push_back(secs);
  }
  return out;
}

/// Sums of the trace's span durations per kind and per worker.
struct TraceSums {
  std::map<TraceEventKind, double> span_s;
  std::map<TraceEventKind, uint64_t> count;
  std::map<uint32_t, double> busy_s;  // Iteration spans per worker.
};

TraceSums SumTrace(const EvalStats& stats) {
  TraceSums sums;
  for (const TraceEvent& ev : stats.trace) {
    ++sums.count[ev.kind];
    if (!TraceEventIsSpan(ev.kind)) continue;
    const double secs = static_cast<double>(ev.end_ns - ev.start_ns) * 1e-9;
    sums.span_s[ev.kind] += secs;
    if (ev.kind == TraceEventKind::kIteration) sums.busy_s[ev.worker] += secs;
  }
  return sums;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Single-threaded replay of the recursive predicate's fixpoint rows
/// through RecursiveTable::MergeBatch: every row once (all accepted), then
/// every row again (all duplicates). Returns ns per merged tuple.
double MergeReplay(const PhysicalPlan& plan, const std::string& pred,
                   const Relation& rows, const EngineOptions& opts) {
  const ReplicaSpec* replica = nullptr;
  for (const SccPlan& scc : plan.sccs) {
    for (const ReplicaSpec& r : scc.replicas) {
      if (r.predicate == pred && replica == nullptr) replica = &r;
    }
  }
  const AggSpec spec = plan.agg_specs.at(pred);
  std::vector<std::vector<TupleBuf>> batches(1);
  for (uint64_t r = 0; r < rows.size(); ++r) {
    if (batches.back().size() == 1024) batches.emplace_back();
    batches.back().emplace_back(rows.Row(r));
  }
  RecursiveTable table(pred, Schema::Ints(spec.stored_arity), spec,
                       replica ? replica->partition_col : 0,
                       replica ? replica->needs_join_index : false, opts);
  const auto start = Clock::now();
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& batch : batches) table.MergeBatch(batch);
  }
  return Since(start) * 1e9 / static_cast<double>(2 * rows.size());
}

/// Moves `tuples` wire tuples of `arity` words in full MsgBlocks from one
/// thread to another through an SpscQueue (TryPush / PopBatch) and checks
/// that every word arrived. Returns ns per tuple, or -1 on a lost word.
double RingTransfer(uint64_t tuples, uint32_t arity, Ledger* ledger) {
  SpscQueue<MsgBlock> ring(64);
  const uint32_t per_block = MsgBlock::CapacityFor(arity);
  const uint64_t blocks = (tuples + per_block - 1) / per_block;
  uint64_t received = 0;
  const auto start = Clock::now();
  std::thread consumer([&] {
    std::vector<MsgBlock> drained;
    uint64_t got = 0;
    while (got < blocks) {
      drained.clear();
      const uint64_t n = ring.PopBatch(&drained, 16);
      for (uint64_t i = 0; i < n; ++i) {
        for (uint32_t t = 0; t < drained[i].count; ++t) {
          received += drained[i].Tuple(t)[0];
        }
      }
      got += n;
      if (n == 0) std::this_thread::yield();
    }
  });
  MsgBlock block;
  block.arity = static_cast<uint16_t>(arity);
  block.count = static_cast<uint16_t>(per_block);
  uint64_t sent = 0;
  for (uint64_t b = 0; b < blocks; ++b) {
    for (uint32_t t = 0; t < per_block * arity; ++t) block.w[t] = b + t;
    for (uint32_t t = 0; t < per_block; ++t) sent += block.w[t * arity];
    while (!ring.TryPush(block)) std::this_thread::yield();
  }
  consumer.join();
  const double secs = Since(start);
  if (!ledger->Check(received == sent, "ring transfer lost data")) return -1.0;
  return secs * 1e9 / static_cast<double>(blocks * per_block);
}

void RunTraced(const Workload& w, uint32_t n, const std::string& fact_path,
               double seconds, uint64_t seed, const std::string& out_dir,
               Ledger* ledger, Report* report) {
  const EngineOptions dws = Opts(n, CoordinationMode::kDws);

  Phase("storage");
  // storage: LoadRelationFile.
  uint64_t rows = 0;
  const auto load = Repeat(0.06 * seconds, [&] {
    StringDict dict;
    const auto start = Clock::now();
    auto rel = LoadRelationFile("arc", Schema::Ints(2), fact_path, &dict);
    const double secs = Since(start);
    if (!ledger->Check(rel.status(), "load")) return -1.0;
    rows = rel.value().size();
    return secs;
  });
  report->AddSamples("storage.load_s", load, "s");
  report->Add("storage.load_rows_per_s", Ratio(rows, Median(load)), "1/s",
              load.size());

  Phase("datalog, planner");
  // datalog and planner: parse + analysis, then logical + physical plans.
  auto db_or = SetUp(dws, fact_path, w.program_text, false);
  if (!ledger->Check(db_or.status(), "setup")) return;
  std::unique_ptr<DCDatalog> db = std::move(db_or).value();
  const auto parse = Repeat(0.03 * seconds, [&] {
    const auto start = Clock::now();
    auto program = ParseProgram(w.program_text, &db->dict());
    if (!ledger->Check(program.status(), "parse")) return -1.0;
    auto analysis = ProgramAnalysis::Analyze(program.value(), db->catalog());
    const double secs = Since(start);
    return ledger->Check(analysis.status(), "analysis") ? secs : -1.0;
  });
  report->AddSamples("datalog.parse_s", parse, "s");
  auto analysis = ProgramAnalysis::Analyze(*db->program(), db->catalog());
  if (!ledger->Check(analysis.status(), "analysis")) return;
  PhysicalPlan plan;
  const auto planning = Repeat(0.03 * seconds, [&] {
    const auto start = Clock::now();
    auto logical = BuildLogicalPlans(*db->program(), analysis.value());
    if (!ledger->Check(logical.status(), "logical plan")) return -1.0;
    auto physical =
        BuildPhysicalPlan(*db->program(), analysis.value(), logical.value());
    const double secs = Since(start);
    if (!ledger->Check(physical.status(), "physical plan")) return -1.0;
    plan = std::move(physical).value();
    return secs;
  });
  report->AddSamples("planner.plan_s", planning, "s");

  Phase("base indexes");
  // runtime: base-index build over the plan's requests.
  const auto index_build = Repeat(0.04 * seconds, [&] {
    const auto start = Clock::now();
    BaseIndexSet indexes(plan.base_indexes);
    for (size_t id = 0; id < plan.base_indexes.size(); ++id) {
      if (!ledger->Check(indexes.EnsureBuilt(static_cast<int>(id),
                                             db->catalog()),
                         "base index build")) {
        return -1.0;
      }
    }
    return Since(start);
  });
  report->AddSamples("runtime.base_index_build_s", index_build, "s");

  Phase("evaluations");
  // core.first_eval_s: the first 4-worker evaluation of the full instance,
  // checked against the 1-worker reference that follows it. Then warm
  // 4-worker evaluations alternating tracing off and on; counters come from
  // the untraced runs, spans from the traced ones.
  double first = -1.0;
  const auto first_fp =
      Evaluate(db.get(), dws, w.output, ledger, "first eval", &first);
  const std::optional<Fingerprint> ref =
      Reference(db.get(), w.output, ledger);
  if (!ref.has_value()) return;
  if (first_fp.has_value()) {
    ledger->Check(*first_fp == *ref, "first eval: result differs");
  }
  report->Add("core.first_eval_s", first, "s");
  EvalStats plain_stats, traced_stats;
  EngineOptions traced = dws;
  traced.enable_trace = true;
  traced.trace_ring_capacity = 1 << 18;
  std::vector<double> plain, with_trace;
  {
    Budget budget(0.4 * seconds);
    for (int round = 0; round < 3 || budget.Left(); ++round) {
      const double a = TimedRun(db.get(), dws, w.output, *ref, ledger, "eval",
                                &plain_stats);
      const double b = TimedRun(db.get(), traced, w.output, *ref, ledger,
                                "traced eval", &traced_stats);
      if (a >= 0) plain.push_back(a);
      if (b >= 0) with_trace.push_back(b);
    }
  }
  const double eval_s = Median(plain);
  const EvalStats& s = plain_stats;
  const double emitted = static_cast<double>(s.tuples_emitted);
  report->Add("runtime.pipeline_rows", s.pipeline_rows_selected, "count");
  report->Add("runtime.rows_per_batch",
              Ratio(s.pipeline_rows_selected, s.pipeline_batches), "count");
  report->Add("runtime.emitted", emitted, "count");
  report->Add("runtime.fold_ratio", Ratio(s.tuples_folded, emitted), "ratio");
  report->Add("runtime.merges", s.merges, "count");
  report->Add("runtime.accept_ratio", Ratio(s.accepts, s.merges), "ratio");
  report->Add("runtime.cache_hit_ratio", Ratio(s.cache_hits, s.merges),
              "ratio");
  report->Add("runtime.probe_cmps_per_merge",
              Ratio(s.merge_probe_cmps, s.merges), "ratio");
  Phase("merge replay, ring transfer");
  const Relation* fixpoint = db->ResultFor(w.recursive);
  if (ledger->Check(fixpoint != nullptr, "recursive relation missing")) {
    report->AddSamples("runtime.merge_ns_per_tuple",
                       Repeat(0.08 * seconds, [&] {
                         return MergeReplay(plan, w.recursive, *fixpoint, dws);
                       }),
                       "ns");
  }
  const uint64_t remote = s.tuples_routed - s.self_loop_tuples;
  report->Add("concurrent.tuples_routed", s.tuples_routed, "count");
  report->Add("concurrent.blocks_sent", s.blocks_sent, "count");
  report->Add("concurrent.tuples_per_block", Ratio(remote, s.blocks_sent),
              "count");
  report->Add("concurrent.self_loop_share",
              Ratio(s.self_loop_tuples, s.tuples_routed), "ratio");
  const uint32_t wire_arity = plan.agg_specs.at(w.recursive).wire_arity;
  report->AddSamples("concurrent.ring_ns_per_tuple",
                     Repeat(0.06 * seconds, [&] {
                       return RingTransfer(std::max<uint64_t>(remote, 1 << 16),
                                           wire_arity, ledger);
                     }),
                     "ns");
  report->Add("core.iterations_total", s.total_local_iterations, "count");
  report->Add("core.iterations_max", s.max_local_iterations, "count");
  report->Add("core.idle_wait_s", s.idle_wait_seconds, "s");
  report->Add("core.idle_share", Ratio(s.idle_wait_seconds, eval_s * n),
              "ratio");
  report->Add("core.morsels_published", s.morsels_published, "count");
  report->Add("core.steal_ratio", Ratio(s.morsels_stolen, s.morsels_published),
              "ratio");
  report->Add("core.tuples_stolen", s.tuples_stolen, "count");

  Phase("trace");
  // trace: spans of the last traced DWS evaluation, plus a traced Global run
  // for the barrier wait.
  const TraceSums sums = SumTrace(traced_stats);
  auto span = [&](TraceEventKind k) {
    auto it = sums.span_s.find(k);
    return it == sums.span_s.end() ? 0.0 : it->second;
  };
  auto count = [&](TraceEventKind k) {
    auto it = sums.count.find(k);
    return it == sums.count.end() ? 0.0 : static_cast<double>(it->second);
  };
  double busy_max = 0, busy_sum = 0;
  for (const auto& [worker, busy] : sums.busy_s) {
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  report->Add("trace.iteration_s", span(TraceEventKind::kIteration), "s");
  report->Add("trace.park_s", span(TraceEventKind::kPark), "s");
  report->Add("trace.dws_wait_s", span(TraceEventKind::kDwsWait), "s");
  EngineOptions global = traced;
  global.coordination = CoordinationMode::kGlobal;
  EvalStats global_stats;
  TimedRun(db.get(), global, w.output, *ref, ledger, "traced global eval",
           &global_stats);
  double barrier = 0;
  for (const TraceEvent& ev : global_stats.trace) {
    if (ev.kind == TraceEventKind::kBarrierWait) {
      barrier += static_cast<double>(ev.end_ns - ev.start_ns) * 1e-9;
    }
  }
  report->Add("trace.barrier_wait_s", barrier, "s");
  const double busy_mean =
      Ratio(busy_sum, static_cast<double>(sums.busy_s.size()));
  report->Add("trace.busy_imbalance", Ratio(busy_max, busy_mean), "ratio");
  report->Add("trace.drains", count(TraceEventKind::kDrain), "count");
  report->Add("trace.block_pushes", count(TraceEventKind::kBlockPush),
              "count");
  report->Add("trace.dropped", traced_stats.trace_dropped, "count");
  report->Add("trace.overhead_pct",
              (Ratio(Median(with_trace), eval_s) - 1.0) * 100.0, "%",
              with_trace.size());
  const std::string trace_path = out_dir + "/" + w.name + "-trace.json";
  ledger->Check(WriteChromeTraceFile(traced_stats, trace_path),
                "chrome trace");
  report->Info("chrome_trace", "\"" + JsonEscape(trace_path) + "\"");

  Phase("updates");
  // core, write path: per-round delta and re-derivation counts, and the
  // delete batch's cost over the scratch fixpoint of the same EDB. Round 0
  // is a warm-up for the delete timings.
  db.reset();
  FreshEdges fresh(w.graph, seed ^ 0x0dd5ULL);
  std::vector<double> delta_in, rederived, deletes;
  Budget budget(0.15 * seconds);
  for (int round = 0; round < 3 || budget.Left(); ++round) {
    double secs = 0;
    auto session = NewSession(w, dws, fact_path, *ref, ledger, &secs);
    if (session == nullptr) continue;
    const UpdateRound r = RunUpdateRound(session.get(), w, dws, &fresh,
                                         /*check_inserts=*/round == 0, ledger);
    delta_in.push_back(static_cast<double>(r.delta_tuples_in));
    rederived.push_back(static_cast<double>(r.rederived_tuples));
    if (round > 0 && r.delete_s >= 0) deletes.push_back(r.delete_s);
  }
  report->AddSamples("core.delta_tuples_in", delta_in, "count");
  report->AddSamples("core.rederived_tuples", rederived, "count");
  report->Add("core.delete_over_recompute", Ratio(Median(deletes), eval_s),
              "ratio", deletes.size());
}

// --- Command line --------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return Status::InvalidArgument("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) {
        return Status::InvalidArgument("bad --seconds " + val);
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        return Status::InvalidArgument("bad --trace " + val);
      }
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else {
      return Status::InvalidArgument("unknown flag " + key);
    }
  }
  if (a.workload.empty()) return Status::InvalidArgument("--workload needed");
  return a;
}

int Main(int argc, char** argv) {
  auto args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "%s\n", args_or.status().ToString().c_str());
    return 2;
  }
  const Args args = std::move(args_or).value();
  Phase("generate inputs");
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = workload.value();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t workers = std::min(4u, nproc);

  // The fact file is written before anything is timed.
  const std::string fact_path = args.out_dir + "/" + w.name + "-" +
                                std::to_string(args.seed) + ".facts";
  Status st = WriteRelationFile(w.graph.ToArcRelation("arc"), fact_path,
                                nullptr);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  Ledger ledger;
  Report report;
  Phase("reference oracle");
  CheckOracle(w, workers, args.seed, &ledger);
  if (args.trace) {
    RunTraced(w, workers, fact_path, args.seconds, args.seed, args.out_dir,
              &ledger, &report);
  } else {
    RunEndToEnd(w, workers, fact_path, args.seconds, args.seed, &ledger,
                &report);
  }
  std::remove(fact_path.c_str());
  Phase("done");

  report.Info("workload", "\"" + w.name + "\"");
  report.Info("seed", std::to_string(args.seed));
  report.Info("trace", args.trace ? "1" : "0");
  report.Info("nproc", std::to_string(nproc));
  report.Info("workers", "[1, " + std::to_string(workers) + "]");
  report.Info("build_type", "\"" DCD_PERFBENCH_BUILD_TYPE "\"");
  report.Info("compiler", "\"" + JsonEscape(DCD_PERFBENCH_COMPILER) + "\"");
  report.Info("git_sha", "\"" + JsonEscape(args.git_sha) + "\"");
  report.Info("vertices", std::to_string(w.graph.num_vertices()));
  report.Info("edges", std::to_string(w.graph.num_edges()));
  report.Info("oracle_edges", std::to_string(w.reduced.num_edges()));
  report.Info("update_batch_edges", std::to_string(kUpdateBatchEdges));
  report.Info("round_shape",
              "{\"evals\": " + std::to_string(w.evals_per_round) +
                  ", \"inserts\": " + std::to_string(w.inserts_per_round) +
                  ", \"deletes\": 1}");
  std::string failures = "[";
  for (size_t i = 0; i < ledger.failures.size(); ++i) {
    failures += (i ? ", \"" : "\"") + JsonEscape(ledger.failures[i]) + "\"";
  }
  report.Info("failures", failures + "]");
  // Repeated last on stderr, so that the tail of a failed run's log names
  // the operations that failed.
  for (const std::string& what : ledger.failures) {
    std::fprintf(stderr, "[perfbench] failed operation: %s\n", what.c_str());
  }
  std::fprintf(stderr, "[perfbench] %llu of %llu operations failed\n",
               static_cast<unsigned long long>(ledger.failed),
               static_cast<unsigned long long>(ledger.attempted));
  report.Print(ledger.failed == 0, ledger.attempted, ledger.failed);
  return 0;
}

}  // namespace
}  // namespace dcdatalog

int main(int argc, char** argv) { return dcdatalog::Main(argc, argv); }
