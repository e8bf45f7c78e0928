#include "testing/fuzz_runner.h"

#include <algorithm>
#include <sstream>

#include "common/string_dict.h"
#include "core/dcdatalog.h"
#include "core/reference.h"
#include "datalog/parser.h"
#include "storage/catalog.h"
#include "storage/updates.h"

namespace dcdatalog {
namespace testing_gen {
namespace {

std::string RowToString(const std::vector<uint64_t>& row) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < row.size(); ++i) {
    os << (i > 0 ? ", " : "") << static_cast<int64_t>(row[i]);
  }
  os << ")";
  return os.str();
}

/// First few rows present in `a` but not in `b`, multiset-wise.
std::string MultisetExcess(const RowMultiset& a, const RowMultiset& b,
                           size_t limit) {
  RowMultiset excess;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(excess));
  std::ostringstream os;
  for (size_t i = 0; i < excess.size() && i < limit; ++i) {
    os << " " << RowToString(excess[i]);
  }
  if (excess.size() > limit) os << " ... +" << (excess.size() - limit);
  return os.str();
}

}  // namespace

const char* OutcomeKindName(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kAgree:
      return "agree";
    case OutcomeKind::kMismatch:
      return "mismatch";
    case OutcomeKind::kEngineError:
      return "engine-error";
    case OutcomeKind::kReferenceError:
      return "reference-error";
    case OutcomeKind::kLoadError:
      return "load-error";
  }
  return "unknown";
}

RowMultiset SortedRows(const Relation& rel) {
  RowMultiset rows;
  rows.reserve(rel.size());
  for (uint64_t r = 0; r < rel.size(); ++r) {
    TupleRef row = rel.Row(r);
    rows.emplace_back(row.data, row.data + row.arity);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

RunOutcome ComputeOracle(const FuzzCase& c, uint64_t max_rounds,
                         OracleRows* out) {
  // Independent parse over an independent catalog so the oracle shares no
  // state with the engine run (generated programs are all-integer, so the
  // fresh StringDict is moot).
  StringDict dict;
  auto parsed = ParseProgram(c.program, &dict);
  if (!parsed.ok()) {
    return RunOutcome{OutcomeKind::kLoadError, parsed.status().ToString()};
  }
  Catalog catalog;
  catalog.Put(c.graph.ToArcRelation("arc"));
  catalog.Put(c.graph.ToWeightedArcRelation("warc"));
  auto ref = ReferenceEvaluate(parsed.value(), catalog,
                               /*sum_epsilon=*/1e-9, max_rounds);
  if (!ref.ok()) {
    return RunOutcome{OutcomeKind::kReferenceError, ref.status().ToString()};
  }
  out->clear();
  for (const std::string& pred : c.outputs) {
    auto it = ref.value().find(pred);
    (*out)[pred] =
        it != ref.value().end() ? SortedRows(it->second) : RowMultiset{};
  }
  return RunOutcome{OutcomeKind::kAgree, ""};
}

RunOutcome RunEngineOnce(const FuzzCase& c, const RunConfig& config,
                         const OracleRows& oracle) {
  EngineOptions options;
  options.num_workers = config.num_workers;
  options.coordination = config.mode;
  options.max_global_iterations = config.max_global_iterations;
  DCDatalog db(options);
  Status load = c.Load(&db);
  if (!load.ok()) {
    return RunOutcome{OutcomeKind::kLoadError, load.ToString()};
  }
  auto run = db.Run();
  if (!run.ok()) {
    return RunOutcome{OutcomeKind::kEngineError, run.status().ToString()};
  }

  for (const std::string& pred : c.outputs) {
    const Relation* engine_rel = db.ResultFor(pred);
    auto it = oracle.find(pred);
    const RowMultiset got =
        engine_rel != nullptr ? SortedRows(*engine_rel) : RowMultiset{};
    static const RowMultiset kEmpty;
    const RowMultiset& want = it != oracle.end() ? it->second : kEmpty;
    if (got == want) continue;
    std::ostringstream os;
    os << "predicate '" << pred << "': engine has " << got.size()
       << " rows, reference has " << want.size() << ";";
    os << " engine-only:" << MultisetExcess(got, want, 5) << ";";
    os << " reference-only:" << MultisetExcess(want, got, 5);
    return RunOutcome{OutcomeKind::kMismatch, os.str()};
  }
  return RunOutcome{OutcomeKind::kAgree, ""};
}

RunOutcome RunEngineTraced(const FuzzCase& c, const RunConfig& config,
                           EvalStats* stats) {
  EngineOptions options;
  options.num_workers = config.num_workers;
  options.coordination = config.mode;
  options.max_global_iterations = config.max_global_iterations;
  options.enable_trace = true;
  DCDatalog db(options);
  Status load = c.Load(&db);
  if (!load.ok()) {
    return RunOutcome{OutcomeKind::kLoadError, load.ToString()};
  }
  auto run = db.Run();
  if (!run.ok()) {
    return RunOutcome{OutcomeKind::kEngineError, run.status().ToString()};
  }
  *stats = std::move(run).value();
  return RunOutcome{OutcomeKind::kAgree, ""};
}

RunOutcome RunCaseOnce(const FuzzCase& c, const RunConfig& config) {
  OracleRows oracle;
  RunOutcome ref = ComputeOracle(c, config.reference_max_rounds, &oracle);
  if (ref.kind != OutcomeKind::kAgree) return ref;
  return RunEngineOnce(c, config, oracle);
}

namespace {

/// Diffs every output predicate of `db` against reference results computed
/// over `oracle_catalog`; `when` labels the point in the update stream.
RunOutcome DiffAgainstReference(const FuzzCase& c, DCDatalog* db,
                                const Catalog& oracle_catalog,
                                uint64_t max_rounds, const std::string& when) {
  StringDict dict;
  auto parsed = ParseProgram(c.program, &dict);
  if (!parsed.ok()) {
    return RunOutcome{OutcomeKind::kLoadError, parsed.status().ToString()};
  }
  auto ref = ReferenceEvaluate(parsed.value(), oracle_catalog,
                               /*sum_epsilon=*/1e-9, max_rounds);
  if (!ref.ok()) {
    return RunOutcome{OutcomeKind::kReferenceError,
                      when + ": " + ref.status().ToString()};
  }
  for (const std::string& pred : c.outputs) {
    const Relation* engine_rel = db->ResultFor(pred);
    const RowMultiset got =
        engine_rel != nullptr ? SortedRows(*engine_rel) : RowMultiset{};
    auto it = ref.value().find(pred);
    const RowMultiset want =
        it != ref.value().end() ? SortedRows(it->second) : RowMultiset{};
    if (got == want) continue;
    std::ostringstream os;
    os << when << ": predicate '" << pred << "': engine has " << got.size()
       << " rows, reference has " << want.size() << ";";
    os << " engine-only:" << MultisetExcess(got, want, 5) << ";";
    os << " reference-only:" << MultisetExcess(want, got, 5);
    return RunOutcome{OutcomeKind::kMismatch, os.str()};
  }
  return RunOutcome{OutcomeKind::kAgree, ""};
}

}  // namespace

RunOutcome RunIncrementalCase(const FuzzCase& c, const RunConfig& config) {
  EngineOptions options;
  options.num_workers = config.num_workers;
  options.coordination = config.mode;
  options.max_global_iterations = config.max_global_iterations;
  DCDatalog db(options);
  Status load = c.Load(&db);
  if (!load.ok()) {
    return RunOutcome{OutcomeKind::kLoadError, load.ToString()};
  }
  auto begin = db.BeginIncremental();
  if (!begin.ok()) {
    return RunOutcome{OutcomeKind::kEngineError,
                      "BeginIncremental: " + begin.status().ToString()};
  }

  // The oracle's shadow EDB, advanced through the exact same netting code
  // the engine applies.
  Catalog oracle_catalog;
  oracle_catalog.Put(c.graph.ToArcRelation("arc"));
  oracle_catalog.Put(c.graph.ToWeightedArcRelation("warc"));
  StringDict oracle_dict;

  uint64_t maintained = 0;
  uint64_t recomputed = 0;
  const auto diff = [&](const std::string& when) {
    RunOutcome out = DiffAgainstReference(c, &db, oracle_catalog,
                                          config.reference_max_rounds, when);
    const Status stamps = db.CheckStampInvariant();
    if (out.kind == OutcomeKind::kAgree && !stamps.ok()) {
      out = RunOutcome{OutcomeKind::kMismatch,
                       when + ": stamp invariant: " + stamps.ToString()};
    }
    const Status indexes = db.CheckIndexes();
    if (out.kind == OutcomeKind::kAgree && !indexes.ok()) {
      out = RunOutcome{OutcomeKind::kMismatch,
                       when + ": indexes: " + indexes.ToString()};
    }
    out.deletes_maintained = maintained;
    out.deletes_recomputed = recomputed;
    return out;
  };
  RunOutcome out = diff("initial fixpoint");
  if (out.kind != OutcomeKind::kAgree) return out;

  for (size_t b = 0; b < c.updates.batches.size(); ++b) {
    const std::string when = "after batch " + std::to_string(b);
    auto stats = db.ApplyUpdates(c.updates.batches[b]);
    if (!stats.ok()) {
      return RunOutcome{OutcomeKind::kEngineError,
                        when + ": " + stats.status().ToString()};
    }
    auto resolved =
        ResolveUpdateBatch(c.updates.batches[b], oracle_catalog, &oracle_dict);
    if (!resolved.ok()) {
      return RunOutcome{OutcomeKind::kLoadError,
                        when + ": " + resolved.status().ToString()};
    }
    auto deltas = NetOutBatch(resolved.value(), oracle_catalog);
    if (!deltas.ok()) {
      return RunOutcome{OutcomeKind::kLoadError,
                        when + ": " + deltas.status().ToString()};
    }
    Status applied = ApplyDeltasToCatalog(deltas.value(), &oracle_catalog);
    if (!applied.ok()) {
      return RunOutcome{OutcomeKind::kLoadError,
                        when + ": " + applied.ToString()};
    }
    const bool removals = std::any_of(
        deltas.value().begin(), deltas.value().end(),
        [](const RelationDelta& d) { return !d.removed.empty(); });
    if (removals) {
      ++(stats.value().update_recomputes > 0 ? recomputed : maintained);
    }
    out = diff(when);
    if (out.kind != OutcomeKind::kAgree) return out;
  }
  return out;
}

}  // namespace testing_gen
}  // namespace dcdatalog
