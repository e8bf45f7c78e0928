#ifndef DCDATALOG_STORAGE_TEXT_IO_H_
#define DCDATALOG_STORAGE_TEXT_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/string_dict.h"
#include "storage/relation.h"

namespace dcdatalog {

/// Parses a compact column-type spec: one letter per column —
/// 'i' int64, 'd' double, 's' string — e.g. "iis" for (int, int, string).
Result<Schema> ParseSchemaSpec(const std::string& spec);

/// Reads a text file one line at a time through a fixed-size buffer: the
/// file is read in kChunkBytes chunks, a partial last line is carried over
/// to the next chunk, and the buffer grows only for a line longer than it.
/// The whole file is never held in memory. Every text loader (fact files,
/// edge lists) reads through this one scanner.
class LineScanner {
 public:
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  LineScanner();
  ~LineScanner();
  LineScanner(const LineScanner&) = delete;
  LineScanner& operator=(const LineScanner&) = delete;

  /// Opens `path` for reading; false if it cannot be opened.
  bool Open(const std::string& path);

  /// Sets `*line` to the next line without its "\n" or "\r\n" ending and
  /// returns true. A last line with no newline is still a line. Returns
  /// false at end of file or on a read error (then ok() is false). `*line`
  /// stays valid until the next call.
  bool Next(std::string_view* line);

  /// 1-based number of the line Next() returned last.
  uint64_t line_no() const { return line_no_; }

  /// False once a read failed.
  bool ok() const { return !read_error_; }

 private:
  /// Moves the unconsumed tail to the front of the buffer (growing it when
  /// the tail fills it) and reads the next chunk behind it.
  void Refill();

  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  // Unconsumed bytes are [begin_, end_).
  size_t end_ = 0;
  bool eof_ = false;
  bool read_error_ = false;
  uint64_t line_no_ = 0;
};

/// Splits the next field off `*rest`: skips leading separators (the C-locale
/// isspace set: space, \t, \n, \v, \f, \r), returns the field, and leaves
/// `*rest` just past it. Returns an empty view when no field is left.
std::string_view NextField(std::string_view* rest);

/// Parses one field of column type `type` into its 64-bit word. Ints follow
/// ParseInt64Checked and doubles ParseDoubleChecked (common/parse.h): the
/// whole token must be a decimal number, with no '+', no whitespace, no
/// overflow, and for doubles no hex, "inf" or "nan". Strings are interned
/// into `dict`. Returns false, leaving `*word` unspecified, for a malformed
/// number. Fact files and update scripts both parse values through this.
bool ParseFieldWord(std::string_view token, ColumnType type, StringDict* dict,
                    uint64_t* word);

/// "bad int 'x'" (or double): the start of a ParseFieldWord error message.
std::string BadFieldMessage(std::string_view token, ColumnType type);

/// Loads a fact file into a relation named `name` with the given schema.
/// The format, one row per line:
///   - Fields are separated by runs of C-locale whitespace (space, tab,
///     \v, \f, \r), so tab- and space-separated and CRLF files all load.
///   - A line whose first character is '#' or '%' is a comment. An empty
///     line is skipped. A line of only whitespace is a row with no fields,
///     so it fails as too short.
///   - Every row has exactly schema.arity() fields: fewer fail with "row
///     too short at <path>:<line>", more with "row too long at
///     <path>:<line>".
///   - Fields are parsed by ParseFieldWord; a bad one fails with "bad int
///     '<token>' at <path>:<line>" (or "bad double").
/// String columns are interned into `dict` in file order.
Result<Relation> LoadRelationFile(const std::string& name,
                                  const Schema& schema,
                                  const std::string& path, StringDict* dict);

/// Writes a relation as tab-separated text; string columns are resolved
/// through `dict` (pass nullptr to emit raw ids). Numbers are written with
/// std::to_chars, so every double reads back bit for bit. Fails if the file
/// cannot be opened or a write fails.
Status WriteRelationFile(const Relation& relation, const std::string& path,
                         const StringDict* dict);

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_TEXT_IO_H_
