#include "storage/updates.h"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "common/parse.h"
#include "storage/flat_set.h"

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
/// against, so a batch costs one pass per relation instead of one per op.
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
      switch (schema.type(c)) {
        case ColumnType::kInt: {
          int64_t v = 0;
          if (!ParseInt64Checked(token.c_str(), INT64_MIN, INT64_MAX, &v)) {
            return Status::ParseError("bad int '" + token + "' in update for '" +
                                      op.relation + "'");
          }
          out.row[c] = WordFromInt(v);
          break;
        }
        case ColumnType::kDouble: {
          char* end = nullptr;
          const double v = std::strtod(token.c_str(), &end);
          if (end == token.c_str() || *end != '\0') {
            return Status::ParseError("bad double '" + token +
                                      "' in update for '" + op.relation + "'");
          }
          out.row[c] = WordFromDouble(v);
          break;
        }
        case ColumnType::kString:
          out.row[c] = dict->Intern(token);
          break;
      }
    }
    resolved.ops.push_back(std::move(out));
  }
  return resolved;
}

Result<std::vector<RelationDelta>> NetOutBatch(const ResolvedUpdateBatch& batch,
                                               const Catalog& catalog) {
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
    // One pass counts the stored copies of every touched tuple.
    const TupleIds& touched = *state.touched;
    std::vector<uint64_t> base(touched.size(), 0);
    for (uint64_t r = 0; r < state.rel->size(); ++r) {
      const uint64_t id = touched.Find(state.rel->Row(r));
      if (id != FlatTupleSet::kNotFound) ++base[id];
    }
    RelationDelta delta;
    delta.relation = name;
    for (uint64_t id = 0; id < touched.size(); ++id) {
      const TupleRef row = touched.Row(id);
      if (state.present[id] != 0 && base[id] == 0) {
        delta.added.emplace_back(row.data, row.data + row.arity);
      } else if (state.present[id] == 0 && base[id] > 0) {
        // One removal entry per stored copy: each copy was driven through
        // the rules during evaluation and contributed its own derivations.
        for (uint64_t k = 0; k < base[id]; ++k) {
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
                            Catalog* catalog) {
  for (const RelationDelta& delta : deltas) {
    Relation* rel = catalog->Find(delta.relation);
    if (rel == nullptr) {
      return Status::NotFound("update references unknown relation '" +
                              delta.relation + "'");
    }
    if (!delta.removed.empty()) {
      // Compact the row store in place, dropping as many stored copies of
      // each removed tuple as the delta lists; survivors keep their order
      // and the Relation (so every cached Relation*) keeps its address.
      TupleIds targets(*rel);
      std::vector<uint64_t> to_remove;
      for (const auto& row : delta.removed) {
        const uint64_t id = targets.Intern(RefOf(row));
        if (id == to_remove.size()) to_remove.push_back(0);
        ++to_remove[id];
      }
      rel->EraseRowsIf([&](TupleRef row) {
        const uint64_t id = targets.Find(row);
        if (id == FlatTupleSet::kNotFound || to_remove[id] == 0) return false;
        --to_remove[id];
        return true;
      });
    }
    for (const auto& row : delta.added) rel->Append(RefOf(row));
  }
  return Status::OK();
}

}  // namespace dcdatalog
