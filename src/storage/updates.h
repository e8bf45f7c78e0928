#ifndef DCDATALOG_STORAGE_UPDATES_H_
#define DCDATALOG_STORAGE_UPDATES_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/string_dict.h"
#include "storage/catalog.h"

namespace dcdatalog {

/// Streaming EDB update scripts: a sequence of batches, each a list of
/// insert/delete operations against base relations. Text format, one op per
/// line:
///
///   # comment (also %)
///   + arc 1 2        insert tuple (1, 2) into relation arc
///   - arc 2 3        delete tuple (2, 3) from relation arc
///   ---              batch separator
///
/// Batches between separators may be empty. Values are parsed against the
/// target relation's schema at resolution time (ints, doubles, or interned
/// strings), mirroring fact-file loading.
struct UpdateOp {
  bool is_insert = true;
  std::string relation;
  std::vector<std::string> values;  // Unresolved tokens, one per column.
};

struct UpdateBatch {
  std::vector<UpdateOp> ops;
};

struct UpdateScript {
  std::vector<UpdateBatch> batches;
};

/// Parses the text format above. A script with no ops and no separators is
/// empty (zero batches); separators delimit batches, so "---" alone yields
/// two empty batches.
Result<UpdateScript> ParseUpdateScript(const std::string& text);

Result<UpdateScript> LoadUpdateScriptFile(const std::string& path);

/// Round-trips through ParseUpdateScript.
std::string SerializeUpdateScript(const UpdateScript& script);

/// An op with its value row resolved to raw tuple words.
struct ResolvedUpdateOp {
  bool is_insert = true;
  std::string relation;
  std::vector<uint64_t> row;
};

struct ResolvedUpdateBatch {
  std::vector<ResolvedUpdateOp> ops;
};

/// Resolves one batch's tokens against the target relations' schemas.
/// Errors on unknown relations, arity mismatches, and malformed numeric
/// tokens. String columns are interned into `dict`.
Result<ResolvedUpdateBatch> ResolveUpdateBatch(const UpdateBatch& batch,
                                               const Catalog& catalog,
                                               StringDict* dict);

/// The net effect of one batch on one relation: rows to append and stored
/// copies to remove. `removed` carries one entry per stored copy — a tuple
/// present k times in the relation appears k times, because
/// ApplyDeltasToCatalog drops one stored copy per entry and a delete takes
/// the tuple out entirely (set semantics).
struct RelationDelta {
  std::string relation;
  std::vector<std::vector<uint64_t>> added;
  std::vector<std::vector<uint64_t>> removed;
};

/// The update path's way to the stored copies of a tuple without scanning
/// the relation — through an index over it — and the hook that keeps such
/// an index in step when ApplyDeltasToCatalog removes rows. Callers without
/// indexes (the reference oracle, EdbStore) pass none, and NetOutBatch and
/// ApplyDeltasToCatalog scan instead.
struct RowFinder {
  /// Appends to `ids` the id of every row of `relation` (the catalog's
  /// relation named `name`) equal to `row`, in any order. Returns false,
  /// appending nothing, when it cannot answer without a scan.
  std::function<bool(const std::string& name, const Relation& relation,
                     TupleRef row, std::vector<uint64_t>* ids)>
      find;

  /// Called, when set, with the ids (ascending) ApplyDeltasToCatalog is
  /// about to pass to `relation`.RemoveRows, before the rows move.
  std::function<void(const Relation& relation,
                     const std::vector<uint64_t>& ids)>
      will_remove;

  /// Rows NetOutBatch and ApplyDeltasToCatalog visited in a full pass over
  /// a relation `find` could not answer for.
  uint64_t rows_scanned = 0;
};

/// Nets out a batch against the catalog's current contents under set
/// semantics in op order: inserting an already-present tuple is a no-op,
/// deleting an absent tuple is a no-op, and insert-then-delete of the same
/// tuple within the batch cancels. Returns one delta per touched relation
/// (relations whose net effect is empty are omitted), sorted by name. Does
/// not modify the catalog. The stored copies of the touched tuples come
/// from `finder` where it answers for all of a relation's tuples, and from
/// one scan of the relation otherwise.
Result<std::vector<RelationDelta>> NetOutBatch(
    const ResolvedUpdateBatch& batch, const Catalog& catalog,
    RowFinder* finder = nullptr);

/// Applies deltas to the catalog in place; additions append. Removals find
/// the stored copies through `finder` where it answers for all of a
/// relation's removed tuples, and by one scan of the relation otherwise,
/// then drop them with Relation::RemoveRows: every other row keeps its id
/// except that each hole is filled by a row from the tail, and the Relation
/// keeps its address, so cached pointers stay valid. Used identically by
/// the incremental engine, by oracle recomputation and by the server, so
/// all of them see the same EDB.
Status ApplyDeltasToCatalog(const std::vector<RelationDelta>& deltas,
                            Catalog* catalog, RowFinder* finder = nullptr);

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_UPDATES_H_
