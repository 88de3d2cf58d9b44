#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <filesystem>
#include <fstream>

#include "common/random.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/partition.h"
#include "data/schema.h"
#include "data/table.h"
#include "data/value.h"

namespace hprl {
namespace {

SchemaPtr MakeTestSchema() {
  auto domain = std::make_shared<CategoryDomain>(
      std::vector<std::string>{"red", "green", "blue"});
  auto schema = std::make_shared<Schema>();
  schema->AddNumeric("x");
  schema->AddCategorical("color", domain);
  schema->AddText("note");
  return schema;
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, KindsAndPayloads) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_DOUBLE_EQ(Value::Numeric(2.5).num(), 2.5);
  EXPECT_EQ(Value::Category(3).category(), 3);
  EXPECT_EQ(Value::Text("hi").text(), "hi");
}

TEST(ValueTest, EqualityIsKindAndPayload) {
  EXPECT_EQ(Value::Numeric(1.0), Value::Numeric(1.0));
  EXPECT_NE(Value::Numeric(1.0), Value::Numeric(2.0));
  EXPECT_NE(Value::Numeric(1.0), Value::Category(1));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::Text("a"), Value::Text("a"));
}

// ---------------------------------------------------------------- Domain

TEST(CategoryDomainTest, AddAndFind) {
  CategoryDomain d;
  EXPECT_EQ(*d.Add("a"), 0);
  EXPECT_EQ(*d.Add("b"), 1);
  EXPECT_FALSE(d.Add("a").ok());
  EXPECT_EQ(d.Find("b"), 1);
  EXPECT_EQ(d.Find("zz"), -1);
  EXPECT_EQ(d.GetOrAdd("b"), 1);
  EXPECT_EQ(d.GetOrAdd("c"), 2);
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(d.label(2), "c");
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, LookupAndRender) {
  SchemaPtr s = MakeTestSchema();
  EXPECT_EQ(s->num_attributes(), 3);
  EXPECT_EQ(s->FindIndex("color"), 1);
  EXPECT_EQ(s->FindIndex("nope"), -1);
  EXPECT_EQ(s->RenderValue(0, Value::Numeric(2)), "2");
  EXPECT_EQ(s->RenderValue(1, Value::Category(2)), "blue");
  EXPECT_EQ(s->RenderValue(2, Value::Text("n")), "n");
  EXPECT_EQ(s->RenderValue(0, Value::Null()), "?");
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AppendValidates) {
  Table t(MakeTestSchema());
  EXPECT_TRUE(
      t.Append({Value::Numeric(1), Value::Category(0), Value::Text("a")})
          .ok());
  // Wrong arity.
  EXPECT_FALSE(t.Append({Value::Numeric(1)}).ok());
  // Wrong kind.
  EXPECT_FALSE(
      t.Append({Value::Category(0), Value::Category(0), Value::Text("a")})
          .ok());
  // Out-of-domain category.
  EXPECT_FALSE(
      t.Append({Value::Numeric(1), Value::Category(9), Value::Text("a")})
          .ok());
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(TableTest, GatherSelectsRows) {
  Table t(MakeTestSchema());
  for (int i = 0; i < 5; ++i) {
    t.AppendUnchecked(
        {Value::Numeric(i), Value::Category(i % 3), Value::Text("r")});
  }
  Table g = t.Gather({4, 0, 4});
  ASSERT_EQ(g.num_rows(), 3);
  EXPECT_DOUBLE_EQ(g.at(0, 0).num(), 4);
  EXPECT_DOUBLE_EQ(g.at(1, 0).num(), 0);
  EXPECT_DOUBLE_EQ(g.at(2, 0).num(), 4);
}

// ---------------------------------------------------------------- CSV

TEST(CsvTest, ParseLineHandlesQuotes) {
  auto f = ParseCsvLine("a,\"b,c\",\"d\"\"e\"");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, (std::vector<std::string>{"a", "b,c", "d\"e"}));
}

TEST(CsvTest, ParseLineRejectsBadQuoting) {
  EXPECT_FALSE(ParseCsvLine("a,\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("a,b\"c").ok());
}

TEST(CsvTest, RoundTrip) {
  SchemaPtr schema = MakeTestSchema();
  Table t(schema);
  t.AppendUnchecked(
      {Value::Numeric(1.5), Value::Category(2), Value::Text("hello, world")});
  t.AppendUnchecked({Value::Null(), Value::Category(0), Value::Text("x\"y")});

  std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_test.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), 2);
  EXPECT_DOUBLE_EQ(back->at(0, 0).num(), 1.5);
  EXPECT_EQ(back->at(0, 1).category(), 2);
  EXPECT_EQ(back->at(0, 2).text(), "hello, world");
  EXPECT_TRUE(back->at(1, 0).is_null());
  EXPECT_EQ(back->at(1, 2).text(), "x\"y");
  std::remove(path.c_str());
}

TEST(CsvTest, StrictRejectsUnknownCategory) {
  SchemaPtr schema = MakeTestSchema();
  std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_cat.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("x,color,note\n1,magenta,n\n", f);
    fclose(f);
  }
  EXPECT_FALSE(ReadCsv(path, schema, /*strict_categories=*/true).ok());
  auto lenient = ReadCsv(path, schema, /*strict_categories=*/false);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->schema()->attribute(1).domain->Find("magenta"), 3);
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderMismatchFails) {
  SchemaPtr schema = MakeTestSchema();
  std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_hdr.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("x,wrong,note\n", f);
    fclose(f);
  }
  EXPECT_FALSE(ReadCsv(path, schema).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------- ReadCsvRaw differential

// The line-at-a-time reader ReadCsvRaw replaced, kept as the oracle: getline
// plus ParseCsvLine, blank lines skipped, every row as wide as the header.
struct OracleCsv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

Result<OracleCsv> ReadCsvByLines(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::IOError("empty CSV: " + path);
  auto header = ParseCsvLine(line);
  if (!header.ok()) return header.status();
  OracleCsv out;
  out.header = std::move(header).value();
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fields = ParseCsvLine(line);
    if (!fields.ok()) return fields.status();
    if (fields->size() != out.header.size()) {
      return Status::InvalidArgument(
          StrFormat("line %lld: %zu fields, header has %zu",
                    static_cast<long long>(line_no), fields->size(),
                    out.header.size()));
    }
    out.rows.push_back(std::move(fields).value());
  }
  return out;
}

// Both readers agree: same header and rows, or the same error (code and
// message, which carries the line number of a ragged row).
void ExpectSameAsOracle(const std::string& text, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  auto want = ReadCsvByLines(path);
  auto got = ReadCsvRaw(path);
  SCOPED_TRACE(::testing::PrintToString(text));
  ASSERT_EQ(got.ok(), want.ok()) << (got.ok() ? want.status().ToString()
                                              : got.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(got->header, want->header);
  ASSERT_EQ(got->rows.size(), want->rows.size());
  // Ids number the distinct values by first appearance, row-major, across
  // all columns.
  std::map<std::string, uint32_t> want_ids;
  for (size_t r = 0; r < want->rows.size(); ++r) {
    ASSERT_EQ(got->rows[r].size(), want->rows[r].size());
    for (size_t c = 0; c < want->rows[r].size(); ++c) {
      EXPECT_EQ(got->rows[r][c], want->rows[r][c]) << "row " << r << " col "
                                                   << c;
      const auto next = static_cast<uint32_t>(want_ids.size());
      const uint32_t id = want_ids.emplace(want->rows[r][c], next).first->second;
      EXPECT_EQ(got->rows[r].id(c), id) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(got->rows.num_values(), want_ids.size());
}

TEST(CsvTest, RawReaderMatchesLineOracleOnDialectCorners) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_corner.csv")
          .string();
  for (const char* text : {
           "a,b\n1,2\n",                        // plain
           "a,b\n\"x,y\",2\n",                   // comma inside quotes
           "a,b\n\"say \"\"hi\"\"\",\"\"\"\"\n",  // doubled quotes
           "a,b\r\n1,2\r\n3\r,4\n",               // \r anywhere
           "a,b\n\"1\r\",2\n",                   // \r inside quotes
           "a,b,c\n,,\n1,,\n",                    // empty fields
           "a,b\n1,2,\n",                        // trailing comma
           "a,b\n\"1,2\n",                       // unterminated quote
           "a,b\n1,x\"y\n",                      // quote in unquoted field
           "a,b\n\n1,2\n\n\n3,4\n",              // blank lines
           "a,b\n1,2\n3,4",                      // no final newline
           "a,b\n\r\n",                          // a lone \r is not blank
           "a\n\r\n",                            // ... it is one empty field
           "a,b\n",                              // header only
           "a,b",                                // header only, no newline
           "\n1\n",                              // empty header line
           "",                                   // empty file
           "\"a\"\"\",b\n1,2\n",                   // quoted header
           "a,\"b\n1,2\n",                        // bad header
           "a,b\n1,2\n3\n",                       // ragged row
       }) {
    ExpectSameAsOracle(text, path);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, RawReaderMatchesLineOracleOnSeededFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_fuzz.csv").string();
  Rng rng(20);
  auto pick = [&](std::initializer_list<const char*> xs) {
    return std::string(*(xs.begin() + rng.NextBounded(xs.size())));
  };
  for (int file = 0; file < 300; ++file) {
    const size_t width = 1 + rng.NextBounded(4);
    std::string text;
    const size_t lines = rng.NextBounded(8);
    for (size_t l = 0; l <= lines; ++l) {
      if (l > 0 && rng.NextBernoulli(0.1)) {
        text += rng.NextBernoulli(0.5) ? "\n" : "\r\n";  // blank-ish line
        continue;
      }
      size_t fields = width;
      if (rng.NextBernoulli(0.05)) fields += rng.NextBernoulli(0.5) ? 1 : -1;
      for (size_t f = 0; f < fields; ++f) {
        if (f > 0) text += ',';
        std::string field = pick({"", "a", "bb", "x y", "7", "?", "a,b"});
        if (field.find(',') != std::string::npos || rng.NextBernoulli(0.2)) {
          // Quoted, sometimes with a doubled quote inside.
          field = "\"" + field + (rng.NextBernoulli(0.3) ? "\"\"" : "") + "\"";
        }
        if (rng.NextBernoulli(0.03)) field += '"';   // stray quote
        if (rng.NextBernoulli(0.05)) field = '\r' + field;
        if (rng.NextBernoulli(0.05)) field += '\r';
        text += field;
      }
      if (rng.NextBernoulli(0.1)) text += ',';  // trailing comma
      if (l < lines || rng.NextBernoulli(0.7)) text += '\n';
    }
    ExpectSameAsOracle(text, path);
    if (HasFatalFailure()) break;
  }
  std::remove(path.c_str());
}

TEST(CsvTest, RawReaderMatchesLineOracleOnManyDistinctValues) {
  // Enough distinct cells, long and short, to grow the intern table
  // several times; columns share some values and differ in others.
  const std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_many.csv").string();
  Rng rng(21);
  std::string text = "k,a,b\n";
  for (int row = 0; row < 3000; ++row) {
    const uint64_t x = rng.NextBounded(2000);
    text += std::to_string(row) + ',';
    text += std::string(x % 37, 'p') + std::to_string(x) + ',';
    text += std::to_string(x) + std::string(x % 11, 's') + '\n';
  }
  ExpectSameAsOracle(text, path);
  std::remove(path.c_str());
}

TEST(CsvTest, RawReaderStoresEachDistinctValueOnce) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_intern.csv")
          .string();
  {
    std::ofstream out(path);
    out << "a,b\nx,y\ny,x\nx,\"y\"\n";
  }
  auto raw = ReadCsvRaw(path);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw->rows.num_values(), 2u);
  EXPECT_EQ(raw->rows[0].id(0), raw->rows[1].id(1));
  EXPECT_EQ(raw->rows[0].id(1), raw->rows[2].id(1));  // quoting is unwrapped
  EXPECT_NE(raw->rows[0].id(0), raw->rows[0].id(1));
  std::vector<std::string> firsts;
  for (const auto& row : raw->rows) firsts.push_back(row[0]);
  EXPECT_EQ(firsts, (std::vector<std::string>{"x", "y", "x"}));
  std::remove(path.c_str());
}

TEST(CsvTest, TypedReaderReportsLineNumbersPastBlankLines) {
  SchemaPtr schema = MakeTestSchema();
  const std::string path =
      (std::filesystem::temp_directory_path() / "hprl_csv_typed.csv").string();
  {
    std::ofstream out(path);
    out << "x,color,note\n1,red,\"a,b\"\n\n?,blue,c\r\n2,mauve,d\n";
  }
  auto strict = ReadCsv(path, schema);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().message(),
            "line 5: unknown category 'mauve' for color");
  auto lenient = ReadCsv(path, schema, /*strict_categories=*/false);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  ASSERT_EQ(lenient->num_rows(), 3);
  EXPECT_EQ(lenient->at(0, 2).text(), "a,b");
  EXPECT_TRUE(lenient->at(1, 0).is_null());
  EXPECT_EQ(lenient->at(1, 2).text(), "c");
  EXPECT_EQ(lenient->at(2, 1).category(), 3);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- split

TEST(PartitionTest, SplitShapesMatchPaperConstruction) {
  auto schema = std::make_shared<Schema>();
  schema->AddNumeric("id");
  Table t(schema);
  const int64_t n = 301;  // not divisible by 3: remainder dropped
  for (int64_t i = 0; i < n; ++i) t.AppendUnchecked({Value::Numeric(i)});

  Rng rng(5);
  auto split = SplitForLinkage(t, rng);
  ASSERT_TRUE(split.ok());
  int64_t part = n / 3;
  EXPECT_EQ(split->d1.num_rows(), 2 * part);
  EXPECT_EQ(split->d2.num_rows(), 2 * part);
  EXPECT_EQ(split->shared_count, part);

  // The trailing `part` rows coincide (d3 shared block).
  for (int64_t i = 0; i < part; ++i) {
    EXPECT_EQ(split->d1_source[part + i], split->d2_source[part + i]);
    EXPECT_EQ(split->d1.at(part + i, 0).num(), split->d2.at(part + i, 0).num());
  }
  // The leading parts are disjoint.
  std::set<int64_t> d1_own(split->d1_source.begin(),
                           split->d1_source.begin() + part);
  for (int64_t i = 0; i < part; ++i) {
    EXPECT_EQ(d1_own.count(split->d2_source[i]), 0u);
  }
}

TEST(PartitionTest, TooSmallFails) {
  auto schema = std::make_shared<Schema>();
  schema->AddNumeric("id");
  Table t(schema);
  t.AppendUnchecked({Value::Numeric(0)});
  Rng rng(1);
  EXPECT_FALSE(SplitForLinkage(t, rng).ok());
}

}  // namespace
}  // namespace hprl
