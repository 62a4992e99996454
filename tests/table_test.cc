#include <gtest/gtest.h>

#include "table/csv.h"
#include "table/table.h"
#include "table/value.h"

namespace autoem {
namespace {

// ---- Value -----------------------------------------------------------------

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(3.5).is_number());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(std::string("x")).is_string());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(false).ToString(), "false");
  EXPECT_EQ(Value(42.0).ToString(), "42");     // integral numbers stay clean
  EXPECT_EQ(Value(3.5).ToString(), "3.5");
  EXPECT_EQ(Value("hello").ToString(), "hello");
}

TEST(ValueTest, ParseTyping) {
  EXPECT_TRUE(Value::Parse("").is_null());
  EXPECT_TRUE(Value::Parse("true").is_bool());
  EXPECT_TRUE(Value::Parse("FALSE").is_bool());
  EXPECT_TRUE(Value::Parse("3.25").is_number());
  EXPECT_TRUE(Value::Parse("-17").is_number());
  EXPECT_TRUE(Value::Parse("ab-1234").is_string());
  EXPECT_TRUE(Value::Parse("12 main st").is_string());
}

TEST(ValueTest, ParseEmbeddedNulStaysAString) {
  // Fuzzer-found: "1\0junk" used to parse as the number 1 because the
  // full-consumption check compared against '\0' through c_str(). A cell
  // with an embedded NUL is a string, bytes intact.
  Value v = Value::Parse(std::string_view("1\0junk", 6));
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), std::string("1\0junk", 6));
  // A NUL alone is likewise a string (one byte), not the number 0.
  EXPECT_TRUE(Value::Parse(std::string_view("\0", 1)).is_string());
  // Plain numbers still parse as numbers.
  EXPECT_TRUE(Value::Parse("1").is_number());
}

TEST(ValueTest, ParseRoundTripsThroughToString) {
  for (const char* s : {"true", "42", "3.5", "hello world"}) {
    Value v = Value::Parse(s);
    EXPECT_EQ(Value::Parse(v.ToString()), v) << s;
  }
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(1.0), Value(1.0));
  EXPECT_FALSE(Value(1.0) == Value("1"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

// ---- Schema / Table ----------------------------------------------------------

TEST(SchemaTest, IndexOf) {
  Schema s({"name", "address", "city"});
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_EQ(s.IndexOf("address"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
}

TEST(TableTest, AppendChecksArity) {
  Table t("test", Schema({"a", "b"}));
  EXPECT_TRUE(t.Append(Record({Value(1.0), Value(2.0)})).ok());
  Status bad = t.Append(Record({Value(1.0)}));
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, CellAccess) {
  Table t("test", Schema({"a", "b"}));
  ASSERT_TRUE(t.Append(Record({Value("x"), Value(5.0)})).ok());
  EXPECT_EQ(t.cell(0, 0).AsString(), "x");
  EXPECT_DOUBLE_EQ(t.cell(0, 1).AsNumber(), 5.0);
}

TEST(PairSetTest, NumPositives) {
  PairSet ps;
  ps.pairs = {{0, 0, 1}, {1, 1, 0}, {2, 2, 1}, {3, 3, -1}};
  EXPECT_EQ(ps.NumPositives(), 2u);
}

// ---- CSV ------------------------------------------------------------------------

TEST(CsvTest, ParseBasic) {
  auto t = ParseCsv("a,b,c\n1,hello,true\n2,world,false\n", "t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(t->cell(0, 0).AsNumber(), 1.0);
  EXPECT_EQ(t->cell(1, 1).AsString(), "world");
  EXPECT_FALSE(t->cell(1, 2).AsBool());
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  auto t = ParseCsv("name,notes\n\"smith, john\",\"said \"\"hi\"\"\"\n", "t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->cell(0, 0).AsString(), "smith, john");
  EXPECT_EQ(t->cell(0, 1).AsString(), "said \"hi\"");
}

TEST(CsvTest, QuotedNewline) {
  auto t = ParseCsv("a,b\n\"line1\nline2\",x\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0).AsString(), "line1\nline2");
}

TEST(CsvTest, CrLfTolerated) {
  auto t = ParseCsv("a,b\r\n1,2\r\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
}

// A '\r' not followed by '\n' is cell data, not a line-ending artifact.
// (A previous parser revision dropped every bare '\r', silently turning
// "x\ry" into "xy".)
TEST(CsvTest, BareCarriageReturnPreservedInCell) {
  auto t = ParseCsv("a,b\nx\ry,2\n", "t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->cell(0, 0).AsString(), "x\ry");
  EXPECT_DOUBLE_EQ(t->cell(0, 1).AsNumber(), 2.0);
}

TEST(CsvTest, BareCarriageReturnAndCrLfMixed) {
  auto t = ParseCsv("a,b\r\n1,x\ry\r\n", "t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->cell(0, 1).AsString(), "x\ry");
}

TEST(CsvTest, EmptyTrailingFieldKept) {
  auto t = ParseCsv("a,b,c\n1,2,\n", "t");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_TRUE(t->cell(0, 2).is_null());
}

// Property: any table whose cells draw from the CSV-hostile alphabet
// (bare '\r', '\n', '"', ',', empty cells) survives ToCsvString -> ParseCsv
// unchanged. Deterministic xorshift so failures replay.
TEST(CsvTest, RoundTripPropertyOverHostileAlphabet) {
  const char alphabet[] = {'x', 'y', 'z', 'q', ' ', '\r', '\n', '"', ','};
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 50; ++trial) {
    size_t cols = 1 + next() % 4;
    std::vector<std::string> names;
    for (size_t c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
    Table t("prop", Schema(names));
    size_t rows = 1 + next() % 5;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> cells;
      for (size_t c = 0; c < cols; ++c) {
        size_t len = next() % 6;  // 0 = empty cell (round-trips as null)
        std::string s;
        for (size_t k = 0; k < len; ++k) {
          s += alphabet[next() % sizeof(alphabet)];
        }
        cells.push_back(s.empty() ? Value::Null() : Value(s));
      }
      ASSERT_TRUE(t.Append(Record(std::move(cells))).ok());
    }
    auto back = ParseCsv(ToCsvString(t), "prop");
    ASSERT_TRUE(back.ok()) << "trial " << trial << ": "
                           << back.status().ToString();
    ASSERT_EQ(back->num_rows(), rows) << "trial " << trial;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(back->cell(r, c).ToString(), t.cell(r, c).ToString())
            << "trial " << trial << " cell (" << r << "," << c << ")";
      }
    }
  }
}

TEST(CsvTest, MissingTrailingNewline) {
  auto t = ParseCsv("a,b\n1,2", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
}

TEST(CsvTest, EmptyCellsBecomeNull) {
  auto t = ParseCsv("a,b\n,x\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->cell(0, 0).is_null());
}

TEST(CsvTest, ArityMismatchRejected) {
  auto t = ParseCsv("a,b\n1,2,3\n", "t");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  auto t = ParseCsv("a\n\"oops\n", "t");
  EXPECT_FALSE(t.ok());
}

TEST(CsvTest, EmptyInputRejected) {
  auto t = ParseCsv("", "t");
  EXPECT_FALSE(t.ok());
}

TEST(CsvTest, RoundTripThroughString) {
  Table t("rt", Schema({"name", "price"}));
  ASSERT_TRUE(t.Append(Record({Value("a, \"b\""), Value(3.5)})).ok());
  ASSERT_TRUE(t.Append(Record({Value::Null(), Value(2.0)})).ok());
  std::string csv = ToCsvString(t);
  auto back = ParseCsv(csv, "rt");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->cell(0, 0).AsString(), "a, \"b\"");
  EXPECT_DOUBLE_EQ(back->cell(0, 1).AsNumber(), 3.5);
  EXPECT_TRUE(back->cell(1, 0).is_null());
}

TEST(CsvTest, FileRoundTrip) {
  Table t("f", Schema({"x"}));
  ASSERT_TRUE(t.Append(Record({Value("hello world")})).ok());
  std::string path = ::testing::TempDir() + "/autoem_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path, "f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cell(0, 0).AsString(), "hello world");
}

TEST(CsvTest, ReadMissingFileFails) {
  auto t = ReadCsv("/nonexistent/path.csv", "t");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace autoem
