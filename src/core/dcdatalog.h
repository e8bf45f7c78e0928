#ifndef DCDATALOG_CORE_DCDATALOG_H_
#define DCDATALOG_CORE_DCDATALOG_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/options.h"
#include "common/status.h"
#include "common/string_dict.h"
#include "core/engine.h"
#include "datalog/ast.h"
#include "graph/graph.h"
#include "storage/catalog.h"

namespace dcdatalog {

/// The public entry point of the DCDatalog library.
///
/// Typical use:
///
///   dcdatalog::DCDatalog db;                       // default: DWS, all opts
///   db.AddGraph(graph, "arc");                     // load base facts
///   auto st = db.LoadProgramText(R"(
///     tc(X, Y) :- arc(X, Y).
///     tc(X, Y) :- tc(X, Z), arc(Z, Y).
///   )");
///   auto stats = db.Run();                         // parallel fixpoint
///   const Relation* tc = db.ResultFor("tc");       // materialized result
///
/// One instance holds one catalog of base relations and at most one loaded
/// program; Run() may be called repeatedly (derived relations are replaced
/// each time).
class DCDatalog {
 public:
  explicit DCDatalog(EngineOptions options = {});
  ~DCDatalog();

  DCDatalog(const DCDatalog&) = delete;
  DCDatalog& operator=(const DCDatalog&) = delete;

  // --- Base data -----------------------------------------------------------

  /// Creates an empty base relation (error if the name exists).
  Result<Relation*> CreateRelation(const std::string& name, Schema schema);

  /// Loads a graph's edges as `name(src, dst)` — or, when `weighted`, as
  /// `name(src, dst, weight)`.
  Relation* AddGraph(const Graph& graph, const std::string& name,
                     bool weighted = false);

  /// Interns a string constant (for building facts with string columns).
  uint64_t Intern(std::string_view s) { return dict_.Intern(s); }

  // --- Program -------------------------------------------------------------

  Status LoadProgramText(std::string_view source);
  Status LoadProgramFile(const std::string& path);
  const Program* program() const { return program_.get(); }

  // --- Execution -----------------------------------------------------------

  /// Plans and evaluates the loaded program; derived relations are
  /// materialized into the catalog.
  Result<EvalStats> Run();

  // --- Incremental evaluation ----------------------------------------------

  /// Evaluates the loaded program to fixpoint and keeps the engine's
  /// per-worker merge structures alive so later ApplyUpdates calls can
  /// maintain the fixpoint from deltas instead of recomputing. Any prior
  /// incremental session on this instance is discarded.
  Result<EvalStats> BeginIncremental();

  /// Applies one batch of EDB inserts/deletes (an UpdateBatch of textual
  /// ops, resolved against the catalog schemas) and restores the fixpoint
  /// incrementally. Requires BeginIncremental first.
  Result<EvalStats> ApplyUpdates(const UpdateBatch& batch);

  /// Same, for a batch whose values are already resolved to column words.
  Result<EvalStats> ApplyUpdates(const ResolvedUpdateBatch& batch);

  bool incremental_active() const {
    return engine_ != nullptr && engine_->incremental_active();
  }

  /// Engine::CheckStampInvariant of the incremental session.
  Status CheckStampInvariant() {
    if (!incremental_active()) {
      return Status::InvalidArgument(
          "CheckStampInvariant requires BeginIncremental first");
    }
    return engine_->CheckStampInvariant();
  }

  /// Engine::CheckIndexes of the incremental session.
  Status CheckIndexes() {
    if (!incremental_active()) {
      return Status::InvalidArgument(
          "CheckIndexes requires BeginIncremental first");
    }
    return engine_->CheckIndexes();
  }

  /// Returns the materialized relation for a (derived or base) predicate,
  /// or nullptr before Run().
  const Relation* ResultFor(const std::string& name) const;

  // --- Introspection ---------------------------------------------------------

  /// Pretty-prints the optimized logical plans (one per rule version).
  Result<std::string> ExplainLogical() const;

  /// Pretty-prints the physical plan (SCCs, replicas, rules, indexes).
  Result<std::string> ExplainPhysical() const;

  Catalog& catalog() { return catalog_; }
  StringDict& dict() { return dict_; }
  EngineOptions& options() { return options_; }

 private:
  EngineOptions options_;
  Catalog catalog_;
  StringDict dict_;
  std::unique_ptr<Program> program_;
  /// Live only between BeginIncremental and the next LoadProgram*/Run.
  std::unique_ptr<Engine> engine_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_DCDATALOG_H_
