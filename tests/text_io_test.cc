// Unit tests for storage/text_io: schema specs, fact-file loading, and
// relation writing (the CLI's data path).

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "graph/graph.h"
#include "storage/text_io.h"

namespace dcdatalog {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// Loads `content` as a fact file with schema `spec`.
Result<Relation> LoadText(const std::string& content, const char* spec,
                          StringDict* dict) {
  const std::string path = TempPath("facts_text.tsv");
  WriteFile(path, content);
  auto rel = LoadRelationFile("r", ParseSchemaSpec(spec).value(), path, dict);
  std::remove(path.c_str());
  return rel;
}

std::vector<int64_t> IntRows(const Relation& rel) {
  std::vector<int64_t> out;
  for (uint64_t w : rel.raw()) out.push_back(IntFromWord(w));
  return out;
}

bool Mentions(const Status& status, const std::string& text) {
  return status.message().find(text) != std::string::npos;
}

TEST(SchemaSpecTest, ParsesTypeLetters) {
  auto s = ParseSchemaSpec("ids");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().arity(), 3u);
  EXPECT_EQ(s.value().type(0), ColumnType::kInt);
  EXPECT_EQ(s.value().type(1), ColumnType::kDouble);
  EXPECT_EQ(s.value().type(2), ColumnType::kString);
}

TEST(SchemaSpecTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseSchemaSpec("").ok());
  EXPECT_FALSE(ParseSchemaSpec("ix").ok());
}

TEST(TextIoTest, LoadsTypedColumns) {
  const std::string path = TempPath("facts1.tsv");
  WriteFile(path,
            "# comment\n"
            "1 2.5 alice\n"
            "\n"
            "% another comment\n"
            "-3 0.25 bob\n");
  StringDict dict;
  auto rel = LoadRelationFile("r", ParseSchemaSpec("ids").value(), path,
                              &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel.value().size(), 2u);
  EXPECT_EQ(IntFromWord(rel.value().Row(0)[0]), 1);
  EXPECT_DOUBLE_EQ(DoubleFromWord(rel.value().Row(0)[1]), 2.5);
  EXPECT_EQ(dict.Get(rel.value().Row(0)[2]), "alice");
  EXPECT_EQ(IntFromWord(rel.value().Row(1)[0]), -3);
  std::remove(path.c_str());
}

TEST(TextIoTest, RejectsMalformedRows) {
  const std::string path = TempPath("facts2.tsv");
  WriteFile(path, "1 2\n3\n");
  StringDict dict;
  auto rel = LoadRelationFile("r", Schema::Ints(2), path, &dict);
  EXPECT_FALSE(rel.ok());
  EXPECT_NE(rel.status().message().find(":2"), std::string::npos);

  WriteFile(path, "1 x\n");
  EXPECT_FALSE(LoadRelationFile("r", Schema::Ints(2), path, &dict).ok());
  WriteFile(path, "1 2.x\n");
  EXPECT_FALSE(
      LoadRelationFile("r", ParseSchemaSpec("id").value(), path, &dict).ok());
  std::remove(path.c_str());
}

TEST(TextIoTest, RejectsOutOfRangeInts) {
  // strtoll clamps to INT64_MAX/MIN on overflow; the loader must reject the
  // token instead of storing the clamped value.
  const std::string path = TempPath("facts3.tsv");
  StringDict dict;
  for (const char* bad : {"99999999999999999999 1\n",
                          "1 -99999999999999999999\n"}) {
    WriteFile(path, bad);
    auto rel = LoadRelationFile("r", Schema::Ints(2), path, &dict);
    EXPECT_FALSE(rel.ok()) << bad;
    EXPECT_EQ(rel.status().code(), StatusCode::kParseError) << bad;
  }
  // The extremes themselves still load.
  WriteFile(path, "9223372036854775807 -9223372036854775808\n");
  auto rel = LoadRelationFile("r", Schema::Ints(2), path, &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(IntFromWord(rel.value().Row(0)[0]), INT64_MAX);
  EXPECT_EQ(IntFromWord(rel.value().Row(0)[1]), INT64_MIN);
  std::remove(path.c_str());
}

TEST(TextIoTest, MissingFile) {
  StringDict dict;
  EXPECT_EQ(LoadRelationFile("r", Schema::Ints(1), "/no/such/file", &dict)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(TextIoTest, WriteReadRoundTrip) {
  StringDict dict;
  Relation rel("r", ParseSchemaSpec("isd").value());
  rel.Append({WordFromInt(7), dict.Intern("x y"), WordFromDouble(1.5)});
  // Note: strings with spaces would break the format; the dict here uses a
  // space-free token to stay within the loader's contract.
  Relation rel2("r", ParseSchemaSpec("isd").value());
  rel2.Append({WordFromInt(7), dict.Intern("token"), WordFromDouble(1.5)});

  const std::string path = TempPath("facts3.tsv");
  ASSERT_TRUE(WriteRelationFile(rel2, path, &dict).ok());
  auto loaded =
      LoadRelationFile("r", ParseSchemaSpec("isd").value(), path, &dict);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(IntFromWord(loaded.value().Row(0)[0]), 7);
  EXPECT_EQ(dict.Get(loaded.value().Row(0)[1]), "token");
  EXPECT_DOUBLE_EQ(DoubleFromWord(loaded.value().Row(0)[2]), 1.5);
  std::remove(path.c_str());
}

TEST(TextIoTest, LoadsCrlfLineEnds) {
  StringDict dict;
  auto rel = LoadText("1 2\r\n# note\r\n\r\n3\t4\r\n", "ii", &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(IntRows(rel.value()), (std::vector<int64_t>{1, 2, 3, 4}));
  // The '\r' is not part of a string field either.
  auto strs = LoadText("a b\r\n", "ss", &dict);
  ASSERT_TRUE(strs.ok()) << strs.status().ToString();
  EXPECT_EQ(dict.Get(strs.value().Row(0)[1]), "b");
}

TEST(TextIoTest, LoadsLastLineWithoutNewline) {
  StringDict dict;
  auto rel = LoadText("1 2\n3 4", "ii", &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(IntRows(rel.value()), (std::vector<int64_t>{1, 2, 3, 4}));
  auto bad = LoadText("1 2\n3", "ii", &dict);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Mentions(bad.status(), "row too short")) << bad.status().ToString();
  EXPECT_TRUE(Mentions(bad.status(), ":2")) << bad.status().ToString();
}

TEST(TextIoTest, WhitespaceOnlyLineIsAShortRow) {
  StringDict dict;
  for (const char* blankish : {"1 2\n \t\n3 4\n", "1 2\n \r\n3 4\n"}) {
    auto rel = LoadText(blankish, "ii", &dict);
    ASSERT_FALSE(rel.ok()) << blankish;
    EXPECT_EQ(rel.status().code(), StatusCode::kParseError);
    EXPECT_TRUE(Mentions(rel.status(), "row too short at ")) << rel.status().ToString();
    EXPECT_TRUE(Mentions(rel.status(), ":2")) << rel.status().ToString();
  }
}

TEST(TextIoTest, TabAndMixedSeparators) {
  StringDict dict;
  auto rel = LoadText("1\t2\tx\n  3 \t 4\ty \n\t5\v6\fz\t\n", "iis", &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel.value().size(), 3u);
  EXPECT_EQ(IntFromWord(rel.value().Row(1)[0]), 3);
  EXPECT_EQ(IntFromWord(rel.value().Row(2)[1]), 6);
  EXPECT_EQ(dict.Get(rel.value().Row(0)[2]), "x");
  EXPECT_EQ(dict.Get(rel.value().Row(1)[2]), "y");
  EXPECT_EQ(dict.Get(rel.value().Row(2)[2]), "z");
}

TEST(TextIoTest, RejectsSignsJunkAndOverflowWithLineNumbers) {
  StringDict dict;
  for (const char* bad : {"+5", "5x", "9223372036854775808",
                          "-9223372036854775809", "0x10", "1e3", "--1"}) {
    auto rel = LoadText(std::string("1 1\n# c\n1 ") + bad + "\n", "ii", &dict);
    ASSERT_FALSE(rel.ok()) << bad;
    EXPECT_EQ(rel.status().code(), StatusCode::kParseError) << bad;
    EXPECT_TRUE(Mentions(rel.status(), std::string("bad int '") + bad + "'"))
        << rel.status().ToString();
    EXPECT_TRUE(Mentions(rel.status(), ":3")) << rel.status().ToString();
  }
}

TEST(TextIoTest, DoublesFollowTheCheckedRule) {
  StringDict dict;
  for (const char* bad : {"nan", "inf", "-inf", "+1.5", "0x1p3", "1e400",
                          "1.5.2", "1,5"}) {
    auto rel = LoadText(std::string("1 ") + bad + "\n", "id", &dict);
    ASSERT_FALSE(rel.ok()) << bad;
    EXPECT_TRUE(Mentions(rel.status(), std::string("bad double '") + bad))
        << rel.status().ToString();
  }
  auto rel = LoadText("1 -.5\n2 3\n3 1e-3\n4 5.\n", "id", &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(DoubleFromWord(rel.value().Row(0)[1]), -0.5);
  EXPECT_EQ(DoubleFromWord(rel.value().Row(1)[1]), 3.0);
  EXPECT_EQ(DoubleFromWord(rel.value().Row(2)[1]), 1e-3);
  EXPECT_EQ(DoubleFromWord(rel.value().Row(3)[1]), 5.0);
}

TEST(TextIoTest, RejectsRowsLongerThanTheSchema) {
  // A weighted edge list loaded as two int columns used to drop the weight
  // column without a word.
  StringDict dict;
  auto rel = LoadText("1 2\n3 4 7\n", "ii", &dict);
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(Mentions(rel.status(), "row too long at ")) << rel.status().ToString();
  EXPECT_TRUE(Mentions(rel.status(), ":2")) << rel.status().ToString();
  // Trailing separators are not a field.
  EXPECT_TRUE(LoadText("1 2 \t\r\n", "ii", &dict).ok());
}

TEST(TextIoTest, LoadsALineLongerThanTheChunkBuffer) {
  const std::string big(2 * LineScanner::kChunkBytes + 123, 'q');
  StringDict dict;
  auto rel = LoadText("1 a\n2 " + big + "\n3 c\n4", "is", &dict);
  // The last row is short: its line number must still count the long line.
  ASSERT_FALSE(rel.ok());
  EXPECT_TRUE(Mentions(rel.status(), ":4")) << rel.status().ToString();
  rel = LoadText("1 a\n2 " + big + "\n3 c", "is", &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel.value().size(), 3u);
  EXPECT_EQ(dict.Get(rel.value().Row(1)[1]), big);
  EXPECT_EQ(dict.Get(rel.value().Row(2)[1]), "c");
}

TEST(TextIoTest, RowsCrossChunkBoundaries) {
  // ~3.5 chunks of rows of varying width, so rows (and CRLF pairs) land
  // across several chunk boundaries.
  std::string text;
  std::vector<int64_t> want;
  int straddles = 0;
  for (int64_t i = 0; text.size() < 7 * LineScanner::kChunkBytes / 2; ++i) {
    const int64_t a = i * 7919 - 1000000, b = i % 13;
    const std::string row = std::to_string(a) + (i % 3 ? "\t" : " ") +
                            std::to_string(b) + (i % 5 ? "\n" : "\r\n");
    const size_t start = text.size() % LineScanner::kChunkBytes;
    if (start + row.size() > LineScanner::kChunkBytes) ++straddles;
    text += row;
    want.push_back(a);
    want.push_back(b);
  }
  ASSERT_GE(straddles, 3);
  StringDict dict;
  auto rel = LoadText(text, "ii", &dict);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(IntRows(rel.value()), want);
  // An error past the third boundary still names the right line.
  const uint64_t lines = want.size() / 2;
  auto bad = LoadText(text + "oops 1\n", "ii", &dict);
  ASSERT_FALSE(bad.ok());
  const std::string suffix = ":" + std::to_string(lines + 1);
  const std::string& msg = bad.status().message();
  ASSERT_GE(msg.size(), suffix.size());
  EXPECT_EQ(msg.substr(msg.size() - suffix.size()), suffix) << msg;
}

TEST(TextIoTest, WriteReadRoundTripIsExact) {
  StringDict dict;
  Relation rel("r", ParseSchemaSpec("ids").value());
  const std::vector<double> doubles = {0.1,      1.0 / 3,  -0.0,   1e-310,
                                       DBL_MAX,  DBL_MIN,  -2.5e-8,
                                       123456789.123456789, 6.02214076e23};
  int64_t i = INT64_MIN;
  for (double d : doubles) {
    rel.Append({WordFromInt(i), WordFromDouble(d), dict.Intern("s")});
    i = i == INT64_MIN ? INT64_MAX : i / 3 + 1;
  }
  const std::string path = TempPath("facts_exact.tsv");
  ASSERT_TRUE(WriteRelationFile(rel, path, &dict).ok());
  auto loaded = LoadRelationFile("r", rel.schema(), path, &dict);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().raw(), rel.raw());  // Bit for bit.
  std::remove(path.c_str());
}

TEST(TextIoTest, WriteReportsFailures) {
  Relation rel("r", Schema::Ints(1));
  rel.Append({WordFromInt(1)});
  EXPECT_FALSE(WriteRelationFile(rel, "/no/such/dir/out.tsv", nullptr).ok());
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "no /dev/full on this system";
  std::fclose(full);
  for (uint64_t r = 0; r < 100000; ++r) rel.Append({WordFromInt(r)});
  const Status st = WriteRelationFile(rel, "/dev/full", nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(Mentions(st, "write failed")) << st.ToString();
}

TEST(TextIoTest, EdgeListsReadThroughTheSameScanner) {
  const std::string path = TempPath("edges_scanner.txt");
  WriteFile(path, "# header\r\n1 2\r\n\r\n3\t4 -7\n5 6");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g.value().num_edges(), 3u);
  EXPECT_EQ(g.value().edges()[1], (Edge{3, 4, -7}));
  EXPECT_EQ(g.value().edges()[2], (Edge{5, 6, 1}));
  for (const char* bad : {"1 2\n1 2 3 4\n", "1 2\n1 2 w\n", "1 2\n-1 2\n",
                          "1 2\n1\n", "1 2\n % x\n"}) {
    WriteFile(path, bad);
    auto r = LoadEdgeList(path);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(Mentions(r.status(), "bad edge at " + path + ":2"))
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

// --- Differential test against the line-at-a-time loader -------------------

/// ParseInt64Checked as it was before the loader moved to std::from_chars.
bool LegacyParseInt64(const char* s, int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  if (!(*s == '-' || (*s >= '0' && *s <= '9'))) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// The getline + istringstream loader the chunked scanner replaced, for int
/// and string columns.
Result<Relation> LegacyLoad(const Schema& schema, const std::string& path,
                            StringDict* dict) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open fact file: " + path);
  Relation rel("r", schema);
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
      if (schema.type(c) == ColumnType::kInt) {
        int64_t v = 0;
        if (!LegacyParseInt64(token.c_str(), &v)) {
          return Status::ParseError("bad int '" + token + "' at " + path +
                                    ":" + std::to_string(line_no));
        }
        row[c] = WordFromInt(v);
      } else {
        row[c] = dict->Intern(token);
      }
    }
    rel.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
  }
  return rel;
}

TEST(TextIoTest, MatchesTheLegacyLoaderOnSeededFiles) {
  // Inputs stay inside what both loaders accept or reject the same way:
  // no '\r', no whitespace-only lines, no rows longer than the schema, no
  // '+' signs. About a third of the files carry one error.
  const std::string path = TempPath("facts_diff.tsv");
  const char* seps[] = {" ", "\t", "  ", " \t ", "\t\t"};
  const char* words[] = {"alice", "bob", "c", "d-1", "e_e", "42x", "%f", "#g"};
  int loaded = 0, rejected = 0;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](uint64_t n) { return rng() % n; };
    const std::string spec = seed % 3 == 0 ? "ii" : seed % 3 == 1 ? "isi" : "ssi";
    std::string text;
    const uint64_t lines = 1 + pick(400);
    const uint64_t error_line = seed % 3 == 0 ? 1 + pick(lines) : 0;
    for (uint64_t l = 1; l <= lines; ++l) {
      const uint64_t kind = pick(20);
      if (kind == 0) {
        text += "\n";
        continue;
      }
      if (kind == 1) {
        text += pick(2) ? "# comment 1 2\n" : "%\tcomment\n";
        continue;
      }
      std::string row = pick(4) == 0 ? seps[pick(5)] : "";
      const size_t fields = l == error_line && pick(2) ? spec.size() - 1
                                                       : spec.size();
      for (size_t c = 0; c < fields; ++c) {
        if (c > 0) row += seps[pick(5)];
        if (l == error_line && c == 0 && fields == spec.size() &&
            spec[0] == 'i') {
          row += pick(2) ? "12z" : "99999999999999999999";
        } else if (spec[c] == 'i') {
          row += std::to_string(static_cast<int64_t>(rng()) >>
                                (pick(64)));
        } else {
          row += words[pick(8)] + std::to_string(pick(50));
        }
      }
      if (pick(4) == 0) row += seps[pick(5)];
      text += row + (l == lines && pick(2) ? "" : "\n");
    }
    WriteFile(path, text);
    const Schema schema = ParseSchemaSpec(spec).value();
    StringDict old_dict, new_dict;
    auto want = LegacyLoad(schema, path, &old_dict);
    auto got = LoadRelationFile("r", schema, path, &new_dict);
    ASSERT_EQ(want.ok(), got.ok())
        << "seed " << seed << ": " << want.status().ToString() << " vs " << got.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(want.status().ToString(), got.status().ToString())
          << "seed " << seed;
      ++rejected;
      continue;
    }
    ++loaded;
    // Same rows, same words: string ids match because both intern in file
    // order into a fresh dictionary.
    ASSERT_EQ(got.value().raw(), want.value().raw()) << "seed " << seed;
    ASSERT_EQ(new_dict.size(), old_dict.size()) << "seed " << seed;
    for (uint64_t id = 0; id < new_dict.size(); ++id) {
      ASSERT_EQ(new_dict.Get(id), old_dict.Get(id)) << "seed " << seed;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GE(loaded, 30);
  EXPECT_GE(rejected, 10);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dcdatalog
