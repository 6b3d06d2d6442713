// Tests for the util module: Status/Result plumbing, string helpers, the
// seeded RNG, the table printer, and the ParallelFor fan-out.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/task_pool.h"

namespace dart {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kInfeasible,
        StatusCode::kParseError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> result(Status::NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_THROW(result.value(), BadResultAccess);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  DART_ASSIGN_OR_RETURN(int half, Half(x));
  DART_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(StringsTest, SplitKeepsEmpties) {
  auto pieces = Split("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[3], "");
}

TEST(StringsTest, SplitTrimmedDropsEmpties) {
  auto pieces = SplitTrimmed(" a , , b ", ',');
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_TRUE(EqualsIgnoreCase("ReCeIpTs", "receipts"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, IntegerLiteral) {
  EXPECT_TRUE(IsIntegerLiteral("42"));
  EXPECT_TRUE(IsIntegerLiteral("-7"));
  EXPECT_TRUE(IsIntegerLiteral(" +3 "));
  EXPECT_FALSE(IsIntegerLiteral("3.5"));
  EXPECT_FALSE(IsIntegerLiteral("abc"));
  EXPECT_FALSE(IsIntegerLiteral(""));
  EXPECT_FALSE(IsIntegerLiteral("-"));
}

TEST(StringsTest, NumericLiteral) {
  EXPECT_TRUE(IsNumericLiteral("3.5"));
  EXPECT_TRUE(IsNumericLiteral("-0.25"));
  EXPECT_TRUE(IsNumericLiteral("42"));
  EXPECT_FALSE(IsNumericLiteral("1e"));
  EXPECT_FALSE(IsNumericLiteral("12x"));
  EXPECT_FALSE(IsNumericLiteral(""));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-12.0), "-12");
  EXPECT_EQ(FormatDouble(0.25), "0.25");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, WeightedIndexHonorsZeroWeights) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.WeightedIndex({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(11);
  auto sample = rng.SampleIndices(10, 6);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (size_t index : sample) EXPECT_LT(index, 10u);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"name", "n"});
  printer.AddRow({"alpha", "1"});
  printer.AddRow({"b", "22"});
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("name  | n"), std::string::npos);
  EXPECT_NE(out.find("alpha | 1"), std::string::npos);
  EXPECT_NE(out.find("b     | 22"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter printer({"a", "b", "c"});
  printer.AddRow({"x"});
  EXPECT_EQ(printer.row_count(), 1u);
  EXPECT_NO_THROW(printer.ToString());
}

// --- ParallelFor ------------------------------------------------------------

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kItems = 100;
  for (int workers : {1, 3, 8}) {
    std::vector<size_t> order(kItems);
    std::iota(order.rbegin(), order.rend(), 0);  // reverse: any order works
    std::vector<std::atomic<int>> runs(kItems);
    const util::TaskPoolStats stats = util::ParallelFor(
        workers, order, [&](size_t index) { runs[index].fetch_add(1); });
    for (size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
    EXPECT_EQ(stats.busy_seconds.size(), static_cast<size_t>(workers));
  }
}

TEST(ParallelForTest, OneWorkerRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<size_t> order = {4, 0, 3, 1, 2};
  std::vector<size_t> seen;
  util::ParallelFor(1, order, [&](size_t index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(index);
  });
  EXPECT_EQ(seen, order);
}

}  // namespace
}  // namespace dart
