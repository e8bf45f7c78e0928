#include "storage/text_io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/parse.h"

namespace dcdatalog {

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Column> cols;
  for (size_t i = 0; i < spec.size(); ++i) {
    ColumnType type;
    switch (spec[i]) {
      case 'i':
        type = ColumnType::kInt;
        break;
      case 'd':
        type = ColumnType::kDouble;
        break;
      case 's':
        type = ColumnType::kString;
        break;
      default:
        return Status::InvalidArgument(
            std::string("bad schema spec character '") + spec[i] +
            "' (use i, d, s)");
    }
    cols.push_back(Column{"c" + std::to_string(i), type});
  }
  if (cols.empty()) {
    return Status::InvalidArgument("empty schema spec");
  }
  return Schema(std::move(cols));
}

Result<Relation> LoadRelationFile(const std::string& name,
                                  const Schema& schema,
                                  const std::string& path, StringDict* dict) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open fact file: " + path);
  Relation rel(name, schema);
  std::string line;
  uint64_t line_no = 0;
  std::vector<uint64_t> row(schema.arity());
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::string token;
    for (size_t c = 0; c < schema.arity(); ++c) {
      if (!(ls >> token)) {
        return Status::ParseError("row too short at " + path + ":" +
                                  std::to_string(line_no));
      }
      switch (schema.type(c)) {
        case ColumnType::kInt: {
          int64_t v = 0;
          if (!ParseInt64Checked(token.c_str(), INT64_MIN, INT64_MAX, &v)) {
            return Status::ParseError("bad int '" + token + "' at " + path +
                                      ":" + std::to_string(line_no));
          }
          row[c] = WordFromInt(v);
          break;
        }
        case ColumnType::kDouble: {
          char* end = nullptr;
          const double v = std::strtod(token.c_str(), &end);
          if (end == token.c_str() || *end != '\0') {
            return Status::ParseError("bad double '" + token + "' at " +
                                      path + ":" + std::to_string(line_no));
          }
          row[c] = WordFromDouble(v);
          break;
        }
        case ColumnType::kString:
          row[c] = dict->Intern(token);
          break;
      }
    }
    rel.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
  }
  return rel;
}

Status WriteRelationFile(const Relation& relation, const std::string& path,
                         const StringDict* dict) {
  std::ofstream out(path);
  if (!out) return Status::RuntimeError("cannot write: " + path);
  const Schema& schema = relation.schema();
  for (uint64_t r = 0; r < relation.size(); ++r) {
    TupleRef row = relation.Row(r);
    for (uint32_t c = 0; c < relation.arity(); ++c) {
      if (c > 0) out << '\t';
      switch (schema.type(c)) {
        case ColumnType::kInt:
          out << IntFromWord(row[c]);
          break;
        case ColumnType::kDouble:
          out << DoubleFromWord(row[c]);
          break;
        case ColumnType::kString:
          if (dict != nullptr) {
            out << dict->Get(row[c]);
          } else {
            out << row[c];
          }
          break;
      }
    }
    out << '\n';
  }
  return Status::OK();
}

}  // namespace dcdatalog
