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
  if (e.relation->size() < e.rows_indexed) {
    return Status::Internal("relation '" + e.req.relation +
                            "' lost rows behind its built index's back");
  }
  CatchUp(&e);
  return Status::OK();
}

void BaseIndexSet::CatchUp(Entry* e) {
  e->hash.Append(*e->relation, e->req.col, e->rows_indexed);
  e->rows_indexed = e->relation->size();
}

bool BaseIndexSet::FindEqualRows(int id, const Relation& relation,
                                 TupleRef row,
                                 std::vector<uint64_t>* ids) const {
  const Entry& e = entries_[id];
  if (!e.built || e.relation != &relation ||
      relation.size() < e.rows_indexed) {
    return false;
  }
  e.hash.ForEachMatch(row[e.req.col], [&](uint64_t r) {
    if (relation.Row(r) == row) ids->push_back(r);
    return true;
  });
  for (uint64_t r = e.rows_indexed; r < relation.size(); ++r) {
    if (relation.Row(r) == row) ids->push_back(r);
  }
  return true;
}

void BaseIndexSet::RemoveRows(const Relation& relation,
                              const std::vector<uint64_t>& ids) {
  for (Entry& e : entries_) {
    if (!e.built || e.relation != &relation) continue;
    CatchUp(&e);
    DCD_DCHECK(e.hash.size() == relation.size());  // Entry e is row e.
    for (size_t i = ids.size(); i-- > 0;) e.hash.RemoveRow(ids[i]);
    e.rows_indexed = e.hash.size();
  }
}

void BaseIndexSet::RewriteRow(const Relation& relation, uint64_t row,
                              TupleRef next) {
  for (Entry& e : entries_) {
    if (!e.built || e.relation != &relation || row >= e.rows_indexed) {
      continue;
    }
    e.hash.Rekey(row, next[e.req.col]);
  }
}

Status BaseIndexSet::CheckIndexes() const {
  for (const Entry& e : entries_) {
    if (!e.built) continue;
    if (!e.hash.Matches(*e.relation, e.req.col, e.rows_indexed)) {
      return Status::Internal("base index over '" + e.req.relation +
                              "' column " + std::to_string(e.req.col) +
                              " differs from a fresh build");
    }
  }
  return Status::OK();
}

}  // namespace dcdatalog
