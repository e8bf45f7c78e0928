#ifndef DCDATALOG_CORE_DELETE_H_
#define DCDATALOG_CORE_DELETE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "runtime/recursive_table.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace dcdatalog {

/// Deletion through one SCC of an incremental session, set or min/max
/// alike. Facts whose every proof may be lost are invalidated; every other
/// fact keeps its row, so the work scales with the facts checked rather
/// than with the SCC's fixpoint.
///
/// Every set and min/max row carries a derivation stamp
/// (RecursiveTable::stamp). A fact's stamp is the lowest over its
/// replicas' copies, and it exceeds the stamps of the same-SCC facts of at
/// least one instance deriving it (for a min/max group: an instance
/// yielding its best value): the stamp invariant, docs/INTERNALS.md §8.
///
///  * Forward: the removed rows of other relations, driven through the
///    SCC's update versions over the pre-batch state, name candidate facts
///    (a min/max group only when the instance yielded its best value).
///  * Candidates are checked in stamp order. A fact is kept when one of its
///    check versions' instances, over the state after the removals, has
///    every same-SCC fact present, not invalidated and stamped lower (and
///    under min/max, yields the group's best value). Every lower-stamped
///    fact is final by then, so facts on a cycle cannot prove each other.
///  * Otherwise the fact is invalidated, and each fact its delta versions
///    derive becomes a candidate if stamped higher.
///  * Each invalidated fact that some instance over the survivors still
///    derives is reseeded: a set fact as itself, a min/max group as the
///    best value over those instances. The insert loop re-derives the rest.
///  * The guard gives up once more facts are invalidated than survive.
///
/// A fact is named by where the pre-batch fixpoint I stores it (canonical
/// replica partition, row id): the partition's existence set or group
/// index already hashes the tuple to its row.
///
/// Shards: when the SCC has a proof-invariant column (SccPlan::shard_col),
/// checking and forwarding a fact only touch facts with the same value in
/// it, so the work splits into one shard per worker, keyed on
/// PartitionOf(value), each with its own heap: stamp order within a shard
/// is enough. Each shard drives every removed row and keeps the candidates
/// it owns. The guard counts the invalidated facts of all shards. Without
/// such a column, or with one worker, one shard runs on the calling thread.
///
/// Nothing retained is changed: the caller removes the invalidated facts
/// and merges the reseed rows.
struct DeleteInput {
  const SccPlan* scc = nullptr;
  uint32_t num_workers = 1;
  /// Runs fn(0) .. fn(k - 1) on k threads at once: the engine's gang.
  std::function<void(uint32_t k, const std::function<void(uint32_t)>& fn)>
      run_gang;
  /// The SCC's retained partitions [worker][replica]: the pre-batch I.
  const std::vector<std::vector<std::unique_ptr<RecursiveTable>>>* tables =
      nullptr;
  /// Rows each relation lost this batch: EDB removals and the rows that
  /// upstream SCCs invalidated.
  const std::map<std::string, Relation>* removed = nullptr;
  /// The other SCCs' relations after the removals, with base indexes
  /// built for every probe of the SCC's delta and check versions.
  const Catalog* catalog = nullptr;
  const BaseIndexSet* indexes = nullptr;
  /// The same relations before the batch, for the update versions: base
  /// indexes over them, and the pre-batch copy of each relation that lost
  /// rows and that an update version scans or probes. A relation missing
  /// here is read from `catalog`.
  const BaseIndexSet* old_indexes = nullptr;
  const std::map<std::string, Relation>* old_relations = nullptr;
};

struct DeleteResult {
  /// False when the guard gave up (2 |invalidated| > |I|): the caller
  /// recomputes; the other fields are then partial.
  bool completed = true;
  /// Candidates checked.
  uint64_t checked = 0;
  /// Invalidated facts by SCC predicate id and worker: ascending row ids
  /// in the predicate's canonical replica partition.
  std::vector<std::vector<std::vector<uint64_t>>> invalidated;
  /// By SCC predicate id: the stored rows that re-enter the SCC, packed
  /// back to back. A set fact re-enters as itself, a min/max group as its
  /// group columns and the best value its surviving instances yield.
  std::vector<std::vector<uint64_t>> reseed;
};

DeleteResult RunDelete(const DeleteInput& in);

/// Verifies the stamp invariant of an SCC at its fixpoint: `in` describes
/// the current state (`removed` empty; `old_indexes` and `old_relations`
/// may be the current ones). Returns Internal naming the first fact with
/// no lower-stamped instance. A test and fuzzing check, not run by the
/// engine.
Status CheckStampInvariant(const DeleteInput& in);

/// The rule versions a delete runs over one SCC, prepared once, and one
/// executor for all of them. No pipeline runs inside another: a sink
/// only records what it is given.
class DeleteRules {
 public:
  explicit DeleteRules(const DeleteInput& in);

  /// Forward from the removed rows of other relations: drives them
  /// through the update versions over the pre-batch state. A recursive
  /// probe must read the partition owning its key, so a batch runs
  /// against one partition's tables and closes where the next row's
  /// partition differs: the heads reach `emit` in the removed rows'
  /// order, whatever the number of workers.
  void DriveRemoved(BatchEmitSink emit);

  /// Forward from `tuple`, a fact of SCC predicate `pred_id`: its delta
  /// versions, each against the partition owning the tuple in its driving
  /// replica. Other relations are read after the removals.
  void Forward(int pred_id, TupleRef tuple, BatchEmitSink emit);

  /// The check versions of SCC predicate `pred_id`, as indexes into
  /// SccPlan::check_rules, and one run of version `c` over `tuple`.
  const std::vector<size_t>& ChecksOf(int pred_id) const {
    return check_by_pred_[pred_id];
  }
  void RunCheck(size_t c, TupleRef tuple, BatchEmitSink emit);

 private:
  /// Runs `rule` over one driving row.
  void RunOne(const PhysicalRule& rule, const PipelineContext& ctx,
              TupleRef row, BatchEmitSink emit);

  const DeleteInput& in_;
  std::vector<PipelineContext> check_ctx_;
  std::vector<PipelineContext> delta_ctx_;
  std::vector<PipelineContext> update_ctx_;
  std::vector<std::vector<size_t>> check_by_pred_;
  std::vector<std::vector<size_t>> delta_by_pred_;
  BatchPipelineRunner runner_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_DELETE_H_
