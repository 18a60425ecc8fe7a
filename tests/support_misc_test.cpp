// Tests for support/table, support/string_util, support/timer.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "support/check.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace acolay::support {
namespace {

TEST(Table, AlignsColumns) {
  ConsoleTable table({"name", "value"});
  table.add_row({"x", "1.00"});
  table.add_row({"longer", "12.50"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // Every line has the same length (fixed-width layout).
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);
  const auto width = line.size();
  while (std::getline(is, line)) {
    EXPECT_LE(line.size(), width + 2);
  }
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(ConsoleTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::num(2.0, 0), "2");
  EXPECT_EQ(ConsoleTable::num(-0.5, 1), "-0.5");
}

TEST(Table, RejectsArityMismatch) {
  ConsoleTable table({"a"});
  EXPECT_THROW(table.add_row({"x", "y"}), CheckError);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\n x \r"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, SplitWhitespace) {
  EXPECT_EQ(split_whitespace("  a\t b \n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(StringUtil, JoinAndCase) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
  EXPECT_TRUE(ends_with("file.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", ".csv"));
}

TEST(Timer, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = watch.elapsed_ms();
  EXPECT_GE(elapsed, 15.0);
  EXPECT_LT(elapsed, 5000.0);
  watch.reset();
  EXPECT_LT(watch.elapsed_ms(), 15.0);
}

}  // namespace
}  // namespace acolay::support
