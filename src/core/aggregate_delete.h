#ifndef DCDATALOG_CORE_AGGREGATE_DELETE_H_
#define DCDATALOG_CORE_AGGREGATE_DELETE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/backward_forward.h"

namespace dcdatalog {

/// Deletion through one min/max SCC of an incremental session: the groups
/// whose best value may have lost its last proof are invalidated, and
/// every other group keeps its row. It takes the same input as
/// Backward/Forward (`run_gang` unused: it runs on the calling thread).
///
/// Every min/max row carries a derivation stamp (RecursiveTable::stamp),
/// strictly greater than the stamps of the same-SCC rows its deriving
/// instance read. The planner admits a min/max SCC only in copy form
/// (each instance's value is one same-SCC group's value, or computed
/// without one), so at a fixpoint every group has an instance yielding its
/// best value whose same-SCC group is stamped lower: the stamp invariant.
///
///  * Forward: the removed rows of other relations, driven through the
///    update versions over the pre-batch state, name candidate groups:
///    those whose best value the removed instance yielded.
///  * Candidates are checked in stamp order. A group is kept when one of
///    its check versions' instances, over the state after the removals,
///    still yields its best value from a same-SCC group that is not
///    invalidated and is stamped lower (or from none). Every lower-stamped
///    group is final by then, so equal-valued groups on a cycle cannot
///    prove each other.
///  * Otherwise the group is invalidated, and each group it gives its best
///    value to through a delta version becomes a candidate if stamped
///    higher.
///  * The guard gives up once more groups are invalidated than survive.
///
/// Nothing retained is changed: the caller removes the invalidated groups
/// and merges the reseed rows, and the insert loop completes the fixpoint.
struct AggregateDeleteResult {
  /// False when the guard gave up (2 |invalidated| > |I|): the caller
  /// recomputes; the other fields are then partial.
  bool completed = true;
  /// Candidates checked.
  uint64_t checked = 0;
  /// Invalidated groups by SCC predicate id and worker: ascending row ids
  /// in the predicate's canonical replica partition.
  std::vector<std::vector<std::vector<uint64_t>>> invalidated;
  /// By SCC predicate id and worker: the stored rows (group columns, value)
  /// that fold each invalidated group over the instances surviving it,
  /// packed back to back. A group with no surviving instance has none.
  std::vector<std::vector<std::vector<uint64_t>>> reseed;
};

AggregateDeleteResult RunAggregateDelete(const BackwardForwardInput& in);

/// Verifies the stamp invariant of a min/max SCC at its fixpoint: `in`
/// describes the current state (`removed` empty; `old_indexes` and
/// `old_relations` may be the current ones). Returns Internal naming the
/// first group with no lower-stamped proof of its best value. A test and
/// fuzzing check, not run by the engine.
Status CheckStampInvariant(const BackwardForwardInput& in);

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_AGGREGATE_DELETE_H_
