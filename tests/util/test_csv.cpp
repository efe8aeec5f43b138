#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

namespace mnemo::util::csv {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(escape("hello"), "hello");
  EXPECT_EQ(escape("123.45"), "123.45");
}

TEST(CsvEscape, QuotesFieldsWithSpecials) {
  EXPECT_EQ(escape("a,b"), "\"a,b\"");
  EXPECT_EQ(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvParse, SimpleFields) {
  const auto fields = parse_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvParse, QuotedFieldsRoundTrip) {
  const std::string original = "a,b";
  const auto fields = parse_line(escape(original) + ",plain");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], original);
  EXPECT_EQ(fields[1], "plain");
}

TEST(CsvParse, EmptyFields) {
  const auto fields = parse_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvParse, ToleratesCrlf) {
  const auto fields = parse_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvWriter, StreamRows) {
  std::ostringstream out;
  {
    Writer w(out);
    w.row({"h1", "h2"});
    w.field("x").field(std::uint64_t{42}).end_row();
    w.field(3.14159, 3);
    w.end_row();
    EXPECT_EQ(w.rows_written(), 3u);
  }
  EXPECT_EQ(out.str(), "h1,h2\nx,42\n3.14\n");
}

// field(double, p) renders through std::to_chars; it must print exactly
// what printf's "%.*g" does, byte for byte, or reports and the CSV
// artifacts would change.
TEST(CsvWriter, DoubleFieldMatchesPrintfGeneralAtEveryPrecision) {
  const double corpus[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      -2.5,
      123456.789,
      1e-5,
      9.9999999e-5,
      1e15,
      123456789012345678.0,
      9007199254740992.0,  // 2^53
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
      18446744073709551616.0,  // 2^64
      1e300,
      -1e300,
      1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (int p = 1; p <= 17; ++p) {
    for (const double v : corpus) {
      char expected[128];
      std::snprintf(expected, sizeof expected, "%.*g", p, v);
      std::ostringstream out;
      {
        Writer w(out);
        w.field(v, p);
      }
      EXPECT_EQ(out.str(), std::string(expected) + "\n")
          << "precision " << p << " value " << expected;
    }
  }
}

TEST(CsvWriter, IntegerFieldsMatchToString) {
  std::ostringstream out;
  {
    Writer w(out);
    w.field(std::uint64_t{0})
        .field(std::numeric_limits<std::uint64_t>::max())
        .field(std::int64_t{-7})
        .field(std::numeric_limits<std::int64_t>::min());
  }
  EXPECT_EQ(out.str(), "0,18446744073709551615,-7,-9223372036854775808\n");
}

TEST(CsvWriter, DestructorClosesOpenRow) {
  std::ostringstream out;
  {
    Writer w(out);
    w.field("dangling");
  }
  EXPECT_EQ(out.str(), "dangling\n");
}

TEST(CsvFile, WriteThenReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mnemo_csv_test.csv";
  {
    Writer w(path);
    w.row({"key", "value, with comma"});
    w.row({"1", "2"});
  }
  const auto rows = read_file(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "value, with comma");
  EXPECT_EQ(rows[1][0], "1");
  std::filesystem::remove(path);
}

TEST(CsvFile, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/nowhere.csv"), std::runtime_error);
  EXPECT_THROW(Writer("/nonexistent/dir/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace mnemo::util::csv
