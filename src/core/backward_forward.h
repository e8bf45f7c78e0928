#ifndef DCDATALOG_CORE_BACKWARD_FORWARD_H_
#define DCDATALOG_CORE_BACKWARD_FORWARD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
#include "runtime/batch_pipeline.h"
#include "runtime/recursive_table.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace dcdatalog {

/// Backward/Forward deletion (Motik, Nenov, Piro and Horrocks, AAAI 2015)
/// for one set-semantics SCC of an incremental session. Instead of
/// over-deleting everything a removed row helped derive and re-deriving
/// the survivors, it deletes a fact only after a backward search finds no
/// other proof of it, so the work scales with the facts checked rather
/// than with the SCC's fixpoint.
///
///  * Forward: the removed rows of other relations, driven through the
///    SCC's update versions over the pre-batch state, name the candidate
///    facts; each fact confirmed deleted is driven through the delta
///    versions and names more.
///  * Check(F): enumerates the instances deriving F (the SCC's check
///    versions) whose body lies in I \ D and checks every same-SCC body
///    fact, depth first on an explicit stack. Saturate proves a checked
///    fact as soon as one of its instances has every same-SCC fact proved:
///    each recorded instance waits on its unproved facts' watch lists, and
///    a proof runs forward along them. Only checked facts are ever proved,
///    so a cycle cannot support itself.
///  * A candidate that Check leaves unproved is deleted.
///
/// C (checked), P (proved) and D (deleted) are three bits of one state
/// byte per fact. A fact is named by where the pre-batch fixpoint I stores
/// it (canonical replica partition, row id): the partition's existence set
/// already hashes the tuple to its row, so the state needs no second hash.
///
/// Shards: when the SCC has a proof-invariant column (SccPlan::shard_col),
/// Check and Forward from a fact only touch facts with the same value in
/// it, so the work splits into one shard per worker, keyed on
/// PartitionOf(value). Each shard drives every removed row and keeps the
/// candidates in its own bucket; its state bytes, watch lists and stacks
/// are its own. The guard counts D over all shards. Without such a column,
/// or with one worker, one shard owns every fact.
///
/// Nothing retained is changed: the caller commits D.
///
/// The aggregate delete (core/aggregate_delete.h) takes the same input.
struct BackwardForwardInput {
  const SccPlan* scc = nullptr;
  uint32_t num_workers = 1;
  /// Runs fn(0) .. fn(k - 1) on k threads at once: the engine's gang.
  std::function<void(uint32_t k, const std::function<void(uint32_t)>& fn)>
      run_gang;
  /// The SCC's retained partitions [worker][replica]: the pre-batch I.
  const std::vector<std::vector<std::unique_ptr<RecursiveTable>>>* tables =
      nullptr;
  /// Rows each relation lost this batch: EDB removals and the rows that
  /// upstream SCCs deleted.
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

struct BackwardForwardResult {
  /// False when the guard gave up: more facts were deleted than survive
  /// (|D| > |I \ D|), so a recompute is cheaper. `deleted` and `checked`
  /// are then partial.
  bool completed = true;
  /// |C|: the facts the delete had to re-prove.
  uint64_t checked = 0;
  /// D by SCC predicate id and worker: ascending row ids in the
  /// predicate's canonical replica partition.
  std::vector<std::vector<std::vector<uint64_t>>> deleted;
};

BackwardForwardResult RunBackwardForward(const BackwardForwardInput& in);

/// The rule versions a delete runs over one SCC, prepared once, and one
/// executor for all of them. No pipeline runs inside another: a sink
/// only records what it is given.
class DeleteRules {
 public:
  explicit DeleteRules(const BackwardForwardInput& in);

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
  /// Runs `rule` over one driving row: a single-row batch keeps a search
  /// depth first.
  void RunOne(const PhysicalRule& rule, const PipelineContext& ctx,
              TupleRef row, BatchEmitSink emit);

  const BackwardForwardInput& in_;
  std::vector<PipelineContext> check_ctx_;
  std::vector<PipelineContext> delta_ctx_;
  std::vector<PipelineContext> update_ctx_;
  std::vector<std::vector<size_t>> check_by_pred_;
  std::vector<std::vector<size_t>> delta_by_pred_;
  BatchPipelineRunner runner_;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_BACKWARD_FORWARD_H_
