#include "storage/updates.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "storage/flat_set.h"
#include "storage/text_io.h"

namespace dcdatalog {
namespace {

bool IsSeparator(const std::string& line) {
  // "---" optionally followed by whitespace.
  if (line.size() < 3 || line.compare(0, 3, "---") != 0) return false;
  for (size_t i = 3; i < line.size(); ++i) {
    if (line[i] != ' ' && line[i] != '\t' && line[i] != '\r') return false;
  }
  return true;
}

/// Distinct tuples in first-seen order with hashed membership: the small
/// probe side NetOutBatch and ApplyDeltasToCatalog scan a whole relation
/// against when no RowFinder answers, so a batch costs one pass per
/// relation instead of one per op.
class TupleIds {
 public:
  explicit TupleIds(const Relation& like)
      : rows_(like.name(), like.schema()), index_(&rows_) {}
  TupleIds(const TupleIds&) = delete;
  TupleIds& operator=(const TupleIds&) = delete;

  /// Id of `row`, adding it if new.
  uint64_t Intern(TupleRef row) {
    const uint64_t hash = row.Hash();
    uint64_t id = index_.Find(hash, row);
    if (id == FlatTupleSet::kNotFound) {
      id = rows_.Append(row);
      index_.Insert(hash, id);
    }
    return id;
  }

  /// Id of `row`, or FlatTupleSet::kNotFound.
  uint64_t Find(TupleRef row) const { return index_.Find(row.Hash(), row); }

  uint64_t size() const { return rows_.size(); }
  TupleRef Row(uint64_t id) const { return rows_.Row(id); }

 private:
  Relation rows_;
  FlatTupleSet index_;
};

TupleRef RefOf(const std::vector<uint64_t>& row) {
  return TupleRef{row.data(), static_cast<uint32_t>(row.size())};
}

/// The ids of the stored copies of each of `tuples` in `rel`, the
/// catalog's relation `name`: found through `finder` where it answers for
/// all of them, else by one pass over the relation, counted into
/// `finder->rows_scanned`.
std::vector<std::vector<uint64_t>> FindCopies(const std::string& name,
                                              const Relation& rel,
                                              const TupleIds& tuples,
                                              RowFinder* finder) {
  std::vector<std::vector<uint64_t>> copies(tuples.size());
  bool found = finder != nullptr;
  for (uint64_t id = 0; found && id < tuples.size(); ++id) {
    found = finder->find(name, rel, tuples.Row(id), &copies[id]);
  }
  if (found) return copies;
  for (std::vector<uint64_t>& ids : copies) ids.clear();
  for (uint64_t r = 0; r < rel.size(); ++r) {
    const uint64_t id = tuples.Find(rel.Row(r));
    if (id != FlatTupleSet::kNotFound) copies[id].push_back(r);
  }
  if (finder != nullptr) finder->rows_scanned += rel.size();
  return copies;
}

}  // namespace

Result<UpdateScript> ParseUpdateScript(const std::string& text) {
  UpdateScript script;
  script.batches.emplace_back();
  bool saw_separator = false;
  std::istringstream in(text);
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    if (IsSeparator(line)) {
      saw_separator = true;
      script.batches.emplace_back();
      continue;
    }
    std::istringstream ls(line);
    std::string sign, relation;
    ls >> sign >> relation;
    if ((sign != "+" && sign != "-") || relation.empty()) {
      return Status::ParseError("update script line " +
                                std::to_string(line_no) +
                                ": expected '+ rel v...' or '- rel v...'");
    }
    UpdateOp op;
    op.is_insert = sign == "+";
    op.relation = relation;
    std::string token;
    while (ls >> token) op.values.push_back(std::move(token));
    script.batches.back().ops.push_back(std::move(op));
  }
  // No separators and no ops at all: an empty script, not one empty batch.
  if (!saw_separator && script.batches.size() == 1 &&
      script.batches[0].ops.empty()) {
    script.batches.clear();
  }
  return script;
}

Result<UpdateScript> LoadUpdateScriptFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open update script: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseUpdateScript(buf.str());
}

std::string SerializeUpdateScript(const UpdateScript& script) {
  std::ostringstream os;
  for (size_t b = 0; b < script.batches.size(); ++b) {
    if (b > 0) os << "---\n";
    for (const UpdateOp& op : script.batches[b].ops) {
      os << (op.is_insert ? "+" : "-") << ' ' << op.relation;
      for (const std::string& v : op.values) os << ' ' << v;
      os << '\n';
    }
  }
  return os.str();
}

Result<ResolvedUpdateBatch> ResolveUpdateBatch(const UpdateBatch& batch,
                                               const Catalog& catalog,
                                               StringDict* dict) {
  ResolvedUpdateBatch resolved;
  resolved.ops.reserve(batch.ops.size());
  for (const UpdateOp& op : batch.ops) {
    const Relation* rel = catalog.Find(op.relation);
    if (rel == nullptr) {
      return Status::NotFound("update references unknown relation '" +
                              op.relation + "'");
    }
    const Schema& schema = rel->schema();
    if (op.values.size() != schema.arity()) {
      return Status::InvalidArgument(
          "update tuple for '" + op.relation + "' has " +
          std::to_string(op.values.size()) + " values, relation has arity " +
          std::to_string(schema.arity()));
    }
    ResolvedUpdateOp out;
    out.is_insert = op.is_insert;
    out.relation = op.relation;
    out.row.resize(schema.arity());
    for (size_t c = 0; c < schema.arity(); ++c) {
      const std::string& token = op.values[c];
      if (!ParseFieldWord(token, schema.type(c), dict, &out.row[c])) {
        return Status::ParseError(BadFieldMessage(token, schema.type(c)) +
                                  " in update for '" + op.relation + "'");
      }
    }
    resolved.ops.push_back(std::move(out));
  }
  return resolved;
}

Result<std::vector<RelationDelta>> NetOutBatch(
    const ResolvedUpdateBatch& batch, const Catalog& catalog,
    RowFinder* finder) {
  // Per relation: the touched tuples in first-touch order and each one's
  // net presence after the ops seen so far (set semantics — the last op on
  // a tuple decides).
  struct RelState {
    const Relation* rel = nullptr;
    std::unique_ptr<TupleIds> touched;
    std::vector<uint8_t> present;
  };
  std::map<std::string, RelState> states;

  for (const ResolvedUpdateOp& op : batch.ops) {
    RelState& state = states[op.relation];
    if (state.rel == nullptr) {
      state.rel = catalog.Find(op.relation);
      if (state.rel == nullptr) {
        return Status::NotFound("update references unknown relation '" +
                                op.relation + "'");
      }
      state.touched = std::make_unique<TupleIds>(*state.rel);
    }
    if (op.row.size() != state.rel->arity()) {
      return Status::InvalidArgument(
          "update tuple for '" + op.relation + "' has " +
          std::to_string(op.row.size()) + " values, relation has arity " +
          std::to_string(state.rel->arity()));
    }
    const uint64_t id = state.touched->Intern(RefOf(op.row));
    if (id == state.present.size()) state.present.push_back(0);
    state.present[id] = op.is_insert ? 1 : 0;
  }

  std::vector<RelationDelta> deltas;
  for (auto& [name, state] : states) {
    const TupleIds& touched = *state.touched;
    const std::vector<std::vector<uint64_t>> copies =
        FindCopies(name, *state.rel, touched, finder);
    RelationDelta delta;
    delta.relation = name;
    for (uint64_t id = 0; id < touched.size(); ++id) {
      const TupleRef row = touched.Row(id);
      const uint64_t stored = copies[id].size();
      if (state.present[id] != 0 && stored == 0) {
        delta.added.emplace_back(row.data, row.data + row.arity);
      } else if (state.present[id] == 0 && stored > 0) {
        // One removal entry per stored copy: each copy was driven through
        // the rules during evaluation and contributed its own derivations.
        for (uint64_t k = 0; k < stored; ++k) {
          delta.removed.emplace_back(row.data, row.data + row.arity);
        }
      }
    }
    if (!delta.added.empty() || !delta.removed.empty()) {
      deltas.push_back(std::move(delta));
    }
  }
  return deltas;
}

Status ApplyDeltasToCatalog(const std::vector<RelationDelta>& deltas,
                            Catalog* catalog, RowFinder* finder) {
  for (const RelationDelta& delta : deltas) {
    Relation* rel = catalog->Find(delta.relation);
    if (rel == nullptr) {
      return Status::NotFound("update references unknown relation '" +
                              delta.relation + "'");
    }
    if (!delta.removed.empty()) {
      // Drop as many stored copies of each removed tuple as the delta
      // lists.
      TupleIds targets(*rel);
      std::vector<uint64_t> to_remove;
      for (const auto& row : delta.removed) {
        const uint64_t id = targets.Intern(RefOf(row));
        if (id == to_remove.size()) to_remove.push_back(0);
        ++to_remove[id];
      }
      const std::vector<std::vector<uint64_t>> copies =
          FindCopies(delta.relation, *rel, targets, finder);
      std::vector<uint64_t> ids;
      for (uint64_t id = 0; id < targets.size(); ++id) {
        const std::vector<uint64_t>& c = copies[id];
        ids.insert(ids.end(), c.begin(),
                   c.begin() + std::min<size_t>(c.size(), to_remove[id]));
      }
      std::sort(ids.begin(), ids.end());
      if (finder != nullptr && finder->will_remove) {
        finder->will_remove(*rel, ids);
      }
      rel->RemoveRows(ids);
    }
    for (const auto& row : delta.added) rel->Append(RefOf(row));
  }
  return Status::OK();
}

}  // namespace dcdatalog
