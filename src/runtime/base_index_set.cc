#include "runtime/base_index_set.h"

namespace dcdatalog {

BaseIndexSet::BaseIndexSet(const std::vector<BaseIndexReq>& requests) {
  entries_.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    entries_[i].req = requests[i];
  }
}

Status BaseIndexSet::EnsureBuilt(int id, const Catalog& catalog) {
  if (entries_[id].built) return Status::OK();
  const Relation* relation = catalog.Find(entries_[id].req.relation);
  if (relation == nullptr) {
    return Status::NotFound("relation '" + entries_[id].req.relation +
                            "' not materialized before index build");
  }
  EnsureBuiltOver(id, *relation);
  return Status::OK();
}

void BaseIndexSet::EnsureBuiltOver(int id, const Relation& relation) {
  Entry& e = entries_[id];
  if (e.built) return;
  e.relation = &relation;
  e.hash.Build(*e.relation, e.req.col);
  e.built = true;
  e.rows_indexed = e.relation->size();
}

Status BaseIndexSet::SyncAppended(int id, const Catalog& catalog) {
  Entry& e = entries_[id];
  if (!e.built) return EnsureBuilt(id, catalog);
  const uint64_t n = e.relation->size();
  if (n == e.rows_indexed) return Status::OK();
  if (n < e.rows_indexed) {
    return Status::Internal("relation '" + e.req.relation +
                            "' shrank under a built index; Invalidate first");
  }
  e.hash.Append(*e.relation, e.req.col, e.rows_indexed);
  e.rows_indexed = n;
  return Status::OK();
}

bool BaseIndexSet::CountEqualRows(int id, const Relation& relation,
                                  TupleRef row, uint64_t* count) const {
  const Entry& e = entries_[id];
  if (!e.built || e.relation != &relation ||
      relation.size() < e.rows_indexed) {
    return false;
  }
  uint64_t n = 0;
  e.hash.ForEachMatch(row[e.req.col], [&](uint64_t r) {
    n += relation.Row(r) == row ? 1 : 0;
    return true;
  });
  for (uint64_t r = e.rows_indexed; r < relation.size(); ++r) {
    n += relation.Row(r) == row ? 1 : 0;
  }
  *count = n;
  return true;
}

void BaseIndexSet::Invalidate(int id) {
  Entry& e = entries_[id];
  e.built = false;
  e.rows_indexed = 0;
  e.relation = nullptr;
  e.hash = HashIndex();
}

}  // namespace dcdatalog
