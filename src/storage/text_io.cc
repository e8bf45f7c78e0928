#include "storage/text_io.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <system_error>
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

LineScanner::LineScanner()
    : buf_(new char[kChunkBytes]), capacity_(kChunkBytes) {}

LineScanner::~LineScanner() {
  if (file_ != nullptr) std::fclose(file_);
}

bool LineScanner::Open(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  return file_ != nullptr;
}

void LineScanner::Refill() {
  const size_t tail = end_ - begin_;
  if (tail == capacity_) {
    // One line fills the whole buffer: double it.
    std::unique_ptr<char[]> bigger(new char[2 * capacity_]);
    std::memcpy(bigger.get(), buf_.get(), tail);
    buf_ = std::move(bigger);
    capacity_ *= 2;
  } else if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, tail);
  }
  begin_ = 0;
  end_ = tail;
  const size_t want = capacity_ - end_;
  const size_t got = std::fread(buf_.get() + end_, 1, want, file_);
  end_ += got;
  if (got < want) {
    eof_ = true;
    read_error_ = std::ferror(file_) != 0;
  }
}

bool LineScanner::Next(std::string_view* line) {
  size_t scanned = 0;  // Bytes of the tail already known to hold no '\n'.
  while (true) {
    const char* start = buf_.get() + begin_;
    const size_t avail = end_ - begin_;
    const char* nl = static_cast<const char*>(
        std::memchr(start + scanned, '\n', avail - scanned));
    size_t len = 0;
    if (nl != nullptr) {
      len = static_cast<size_t>(nl - start);
      begin_ += len + 1;
    } else if (eof_) {
      if (avail == 0 || read_error_) return false;
      len = avail;
      begin_ = end_;
    } else {
      scanned = avail;
      Refill();
      continue;
    }
    if (len > 0 && start[len - 1] == '\r') --len;
    *line = std::string_view(start, len);
    ++line_no_;
    return true;
  }
}

namespace {

bool IsFieldSeparator(char c) {
  // The C-locale isspace set, without a locale lookup per byte.
  return c == ' ' || (c >= '\t' && c <= '\r');
}

const char* TypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "int";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
  }
  return "?";
}

}  // namespace

std::string_view NextField(std::string_view* rest) {
  const char* p = rest->data();
  const char* end = p + rest->size();
  while (p != end && IsFieldSeparator(*p)) ++p;
  const char* field = p;
  while (p != end && !IsFieldSeparator(*p)) ++p;
  *rest = std::string_view(p, static_cast<size_t>(end - p));
  return std::string_view(field, static_cast<size_t>(p - field));
}

bool ParseFieldWord(std::string_view token, ColumnType type, StringDict* dict,
                    uint64_t* word) {
  switch (type) {
    case ColumnType::kInt: {
      int64_t v = 0;
      if (!ParseInt64Checked(token, INT64_MIN, INT64_MAX, &v)) return false;
      *word = WordFromInt(v);
      return true;
    }
    case ColumnType::kDouble: {
      double v = 0;
      if (!ParseDoubleChecked(token, &v)) return false;
      *word = WordFromDouble(v);
      return true;
    }
    case ColumnType::kString:
      *word = dict->Intern(token);
      return true;
  }
  return false;
}

std::string BadFieldMessage(std::string_view token, ColumnType type) {
  return std::string("bad ") + TypeName(type) + " '" + std::string(token) +
         "'";
}

Result<Relation> LoadRelationFile(const std::string& name,
                                  const Schema& schema,
                                  const std::string& path, StringDict* dict) {
  LineScanner lines;
  if (!lines.Open(path)) {
    return Status::NotFound("cannot open fact file: " + path);
  }
  auto where = [&] { return path + ":" + std::to_string(lines.line_no()); };
  const uint32_t arity = static_cast<uint32_t>(schema.arity());
  Relation rel(name, schema);
  std::vector<uint64_t> row(arity);
  std::string_view line;
  while (lines.Next(&line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    for (uint32_t c = 0; c < arity; ++c) {
      const std::string_view token = NextField(&line);
      if (token.empty()) {
        return Status::ParseError("row too short at " + where());
      }
      if (!ParseFieldWord(token, schema.type(c), dict, &row[c])) {
        return Status::ParseError(BadFieldMessage(token, schema.type(c)) +
                                  " at " + where());
      }
    }
    if (!NextField(&line).empty()) {
      return Status::ParseError("row too long at " + where());
    }
    rel.Append(TupleRef{row.data(), arity});
  }
  if (!lines.ok()) return Status::RuntimeError("read error: " + path);
  return rel;
}

Status WriteRelationFile(const Relation& relation, const std::string& path,
                         const StringDict* dict) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::RuntimeError("cannot write: " + path);
  const Schema& schema = relation.schema();
  // Big enough for any int64 or shortest round-trip double, plus '\t'.
  char num[32];
  for (uint64_t r = 0; r < relation.size() && out; ++r) {
    TupleRef row = relation.Row(r);
    for (uint32_t c = 0; c < relation.arity(); ++c) {
      if (c > 0) out.put('\t');
      std::to_chars_result res{num, std::errc()};
      switch (schema.type(c)) {
        case ColumnType::kInt:
          res = std::to_chars(num, num + sizeof(num), IntFromWord(row[c]));
          break;
        case ColumnType::kDouble:
          res = std::to_chars(num, num + sizeof(num), DoubleFromWord(row[c]));
          break;
        case ColumnType::kString:
          if (dict != nullptr) {
            out << dict->Get(row[c]);
          } else {
            res = std::to_chars(num, num + sizeof(num), row[c]);
          }
          break;
      }
      out.write(num, res.ptr - num);
    }
    out.put('\n');
  }
  out.close();
  if (out.fail()) return Status::RuntimeError("write failed: " + path);
  return Status::OK();
}

}  // namespace dcdatalog
