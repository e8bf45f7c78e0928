#ifndef DCDATALOG_STORAGE_UPDATES_H_
#define DCDATALOG_STORAGE_UPDATES_H_

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
/// present k times in the relation appears k times, because each stored
/// copy contributed its own derivations (support counts see every arrival).
struct RelationDelta {
  std::string relation;
  std::vector<std::vector<uint64_t>> added;
  std::vector<std::vector<uint64_t>> removed;
};

/// Nets out a batch against the catalog's current contents under set
/// semantics in op order: inserting an already-present tuple is a no-op,
/// deleting an absent tuple is a no-op, and insert-then-delete of the same
/// tuple within the batch cancels. Returns one delta per touched relation
/// (relations whose net effect is empty are omitted), sorted by name. Does
/// not modify the catalog.
Result<std::vector<RelationDelta>> NetOutBatch(const ResolvedUpdateBatch& batch,
                                               const Catalog& catalog);

/// Applies deltas to the catalog in place: removals compact the relation's
/// row store (survivors keep their order, and the Relation object keeps its
/// address, so cached pointers stay valid), additions append. Used identically by the incremental
/// engine and by oracle recomputation, so both sides see the same EDB.
Status ApplyDeltasToCatalog(const std::vector<RelationDelta>& deltas,
                            Catalog* catalog);

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_UPDATES_H_
