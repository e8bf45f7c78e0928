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

void BaseIndexSet::Invalidate(int id) {
  Entry& e = entries_[id];
  e.built = false;
  e.rows_indexed = 0;
  e.relation = nullptr;
  e.hash = HashIndex();
}

}  // namespace dcdatalog
