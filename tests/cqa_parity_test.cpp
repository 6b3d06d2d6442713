// CQA parity: consistent value intervals and aggregate answers on 30 random
// 2-year cash budgets (1–3 injected errors) against goldens recorded from the
// monolithic CQA that preceded per-component probing (one k* solve of the
// whole S*(AC), then every min/max probe on a clone of the whole model under
// one global Σδ ≤ k* row). Splitting the cap per component is exact — Σδ is
// separable, so a repair is card-minimal iff every component sits at its own
// optimum — and every interval must match to 1e-6.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../bench/bench_util.h"
#include "repair/cqa.h"

namespace dart::repair {
namespace {

struct GoldenInterval {
  size_t row;  ///< CashBudget row; the cell is its Value attribute.
  double min;
  double max;
};

struct Golden {
  uint64_t seed;
  size_t errors;
  size_t cardinality;
  /// chi1(Section, Year, Type) of the first injected error's row.
  double query_min;
  double query_max;
  size_t num_intervals;
  /// Every interval other than the point [v, v] at the acquired value.
  std::vector<GoldenInterval> moved;
};

const Golden kGoldens[] = {
    {9100, 1, 1, 557, 557, 20, {{4, 198, 201}, {5, 181, 184}, {6, 175, 178}}},
    {9101, 2, 2, 174, 774, 20, {{0, 174, 774}, {9, -3, 597}, {18, 35, 35}}},
    {9102, 3, 3, 201, 201, 20, {{0, 105, 108}, {9, -24, -21}, {14, 21, 24}, {15, 25, 28}, {16, 149, 152}, {17, 201, 201}}},
    {9103, 1, 1, 226, 246, 20, {{10, -68, -48}, {19, 79, 99}}},
    {9104, 2, 2, 158, 158, 20, {{1, 121, 171}, {2, -13, 37}, {11, 144, 194}, {12, -32, 18}}},
    {9105, 3, 3, 152, 152, 20, {{0, 196, 206}, {1, 6, 8}, {2, 144, 146}, {9, 56, 66}, {14, 117, 417}, {15, -117, 183}, {16, -103, 197}}},
    {9106, 1, 1, 113, 115, 20, {{0, 113, 115}, {9, -63, -61}}},
    {9107, 2, 2, -1032, -532, 20, {{7, 354, 354}, {10, -548, -48}, {19, -790, -290}}},
    {9108, 3, 3, 544, 544, 20, {{1, 193, 198}, {2, 40, 45}, {3, 238, 238}, {18, 226, 226}}},
    {9109, 1, 1, 141, 141, 20, {{1, 73, 93}, {2, 48, 68}}},
    {9110, 2, 2, 206, 206, 20, {{1, 181, 184}, {2, 22, 25}, {11, 117, 177}, {12, 95, 155}}},
    {9111, 3, 3, 68, 68, 20, {{7, 129, 129}, {10, 69, 99}, {11, -10, 40}, {12, 28, 78}, {19, -59, -29}}},
    {9112, 1, 1, -548, -543, 20, {{10, -108, -103}, {19, -328, -323}}},
    {9113, 2, 2, 267, 267, 20, {{7, 267, 267}, {10, 21, 71}, {19, -29, 21}}},
    {9114, 3, 3, 265, 265, 20, {{3, 265, 265}, {4, 136, 186}, {5, 49, 99}, {6, 25, 75}, {11, 158, 161}, {12, 51, 54}}},
    {9115, 1, 1, -687, -387, 20, {{10, -383, -83}, {19, -535, -235}}},
    {9116, 2, 2, 141, 141, 20, {{1, -276, 24}, {2, 117, 417}, {3, 141, 141}}},
    {9117, 3, 3, 302, 302, 20, {{0, 43, 48}, {9, 28, 33}, {11, 174, 176}, {12, 126, 128}, {13, 302, 302}}},
    {9118, 1, 1, -967, -367, 20, {{10, -587, 13}, {19, -777, -177}}},
    {9119, 2, 2, 271, 271, 20, {{1, 1, 4}, {2, 47, 50}, {7, 271, 271}}},
    {9120, 3, 3, 134, 134, 20, {{0, 119, 419}, {9, -11, 289}, {10, -611, -11}, {11, 80, 110}, {12, 24, 54}, {19, -790, -190}}},
    {9121, 1, 1, -208, -203, 20, {{10, 174, 179}, {19, -17, -12}}},
    {9122, 2, 2, 92, 92, 20, {{3, 280, 280}, {8, -31, -31}}},
    {9123, 3, 3, 101, 101, 20, {{0, 50, 60}, {9, -200, -190}, {14, 43, 46}, {15, 12, 15}, {16, 43, 46}, {18, 153, 153}}},
    {9124, 1, 1, 178, 178, 20, {{18, -57, -57}}},
    {9125, 2, 2, -49, -47, 20, {{1, 103, 163}, {2, 13, 73}, {10, -49, -47}, {19, -122, -120}}},
    {9126, 3, 3, 477, 477, 20, {{3, 94, 94}, {4, 123, 173}, {5, 159, 209}, {6, 145, 195}, {14, 32, 34}, {15, 43, 45}, {16, 161, 163}}},
    {9127, 1, 1, -88, -88, 20, {{18, -86, -86}}},
    {9128, 2, 1, 362, 362, 20, {{14, 67, 127}, {15, 88, 148}, {16, 87, 147}}},
    {9129, 3, 3, 195, 745, 20, {{1, 134, 684}, {2, 17, 567}, {3, 195, 745}, {4, 142, 692}, {5, 41, 591}, {6, 46, 596}, {7, 329, 879}}},
};

class CqaParityTest : public ::testing::TestWithParam<Golden> {};

TEST_P(CqaParityTest, MatchesMonolithicGoldens) {
  const Golden& golden = GetParam();
  const bench::Scenario scenario =
      bench::MakeBudgetScenario(golden.seed, /*years=*/2, golden.errors);
  // Two threads: the probes fan out through SolveMilpBatch (results are
  // identical at every thread count; the sanitizer smoke targets run this).
  CqaOptions options;
  options.milp.search.num_threads = 2;
  auto result = ComputeConsistentIntervals(scenario.acquired,
                                           scenario.constraints, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->min_repair_cardinality, golden.cardinality);
  ASSERT_EQ(result->intervals.size(), golden.num_intervals);
  size_t next = 0;
  for (const CellInterval& interval : result->intervals) {
    double min = interval.current_value;
    double max = interval.current_value;
    if (next < golden.moved.size() &&
        golden.moved[next].row == interval.cell.row) {
      min = golden.moved[next].min;
      max = golden.moved[next].max;
      ++next;
    }
    EXPECT_NEAR(interval.min_value, min, 1e-6) << interval.cell.ToString();
    EXPECT_NEAR(interval.max_value, max, 1e-6) << interval.cell.ToString();
  }
  EXPECT_EQ(next, golden.moved.size());

  const rel::Tuple& tuple = scenario.acquired.FindRelation("CashBudget")
                                ->row(scenario.errors[0].cell.row);
  auto answer = ConsistentAggregateAnswer(
      scenario.acquired, scenario.constraints, "chi1",
      {tuple[1], tuple[0], tuple[3]}, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->min_repair_cardinality, golden.cardinality);
  EXPECT_NEAR(answer->min_value, golden.query_min, 1e-6);
  EXPECT_NEAR(answer->max_value, golden.query_max, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, CqaParityTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dart::repair
