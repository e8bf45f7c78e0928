#ifndef DCDATALOG_CORE_BACKWARD_FORWARD_H_
#define DCDATALOG_CORE_BACKWARD_FORWARD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "planner/physical_plan.h"
#include "runtime/base_index_set.h"
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
/// Nothing retained is changed: the caller commits D.
struct BackwardForwardInput {
  const SccPlan* scc = nullptr;
  uint32_t num_workers = 1;
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
  /// rows (the update versions' scan steps read these).
  const BaseIndexSet* old_indexes = nullptr;
  const std::map<std::string, Relation>* old_relations = nullptr;
};

struct BackwardForwardResult {
  /// False when the guard gave up: more facts were deleted than survive
  /// (|D| > |I \ D|), so a recompute is cheaper. `deleted` is then partial.
  bool completed = true;
  /// |C|: the facts the delete had to re-prove.
  uint64_t checked = 0;
  /// D by SCC predicate id and worker: ascending row ids in the
  /// predicate's canonical replica partition.
  std::vector<std::vector<std::vector<uint64_t>>> deleted;
};

BackwardForwardResult RunBackwardForward(const BackwardForwardInput& in);

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_BACKWARD_FORWARD_H_
