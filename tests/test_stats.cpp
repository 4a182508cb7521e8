#include <cmath>
#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "core/check.hpp"
#include "stats/confidence.hpp"
#include "stats/fairness.hpp"
#include "stats/table.hpp"

namespace wmn::stats {
namespace {

TEST(Fairness, JainKnownValues) {
  const double xs_even[] = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(xs_even), 1.0);
  const double xs_one[] = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(xs_one), 0.25);  // 1/n
  const double xs_mixed[] = {1.0, 2.0, 3.0};
  // (6)^2 / (3 * 14) = 36/42.
  EXPECT_NEAR(jain_index(xs_mixed), 36.0 / 42.0, 1e-12);
}

TEST(Fairness, JainDegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const double zeros[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(Fairness, PeakToMean) {
  const double xs[] = {1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(peak_to_mean(xs), 2.0);
  const double even[] = {3.0, 3.0};
  EXPECT_DOUBLE_EQ(peak_to_mean(even), 1.0);
}

TEST(Fairness, SingleElementIsPerfectlyFair) {
  const double one[] = {7.0};
  EXPECT_DOUBLE_EQ(jain_index(one), 1.0);
  EXPECT_DOUBLE_EQ(peak_to_mean(one), 1.0);
  EXPECT_DOUBLE_EQ(load_variance(one), 0.0);
}

TEST(Fairness, NegativeLoadGuardedAndClampedToZero) {
  // Loads must be non-negative; under kLogAndCount a negative element
  // is counted as a violation and treated as zero, keeping the indices
  // inside their documented ranges.
  core::set_check_policy(core::CheckPolicy::kLogAndCount);
  core::reset_check_violations();
  const double xs[] = {4.0, -4.0, 4.0};
  EXPECT_DOUBLE_EQ(jain_index(xs), 4.0 / 6.0);  // == {4, 0, 4}
  EXPECT_DOUBLE_EQ(peak_to_mean(xs), 1.5);
  EXPECT_DOUBLE_EQ(load_variance(xs),
                   load_variance(std::array{4.0, 0.0, 4.0}));
  EXPECT_GE(core::check_violations(), 3u);  // one per function at least
  core::reset_check_violations();
  core::set_check_policy(core::CheckPolicy::kAbort);
}

TEST(Fairness, LoadVarianceKnownValues) {
  EXPECT_DOUBLE_EQ(load_variance({}), 0.0);
  const double even[] = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(load_variance(even), 0.0);
  const double xs[] = {2.0, 4.0, 6.0};
  // Population variance about mean 4: (4 + 0 + 4) / 3.
  EXPECT_NEAR(load_variance(xs), 8.0 / 3.0, 1e-12);
  // Hotspot collapse: same total load, one gateway takes everything.
  const double hot[] = {12.0, 0.0, 0.0};
  EXPECT_GT(load_variance(hot), load_variance(xs));
  EXPECT_LT(jain_index(hot), jain_index(xs));
}

TEST(Confidence, TCriticalValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(9), 2.262, 1e-3);
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_95(1000), 1.960, 1e-3);
}

TEST(Confidence, KnownInterval) {
  // n=4, mean 10, sd 2 => hw = 3.182 * 2 / 2 = 3.182.
  const double xs[] = {8.0, 9.0, 11.0, 12.0};
  const auto ci = mean_ci_95(xs);
  EXPECT_DOUBLE_EQ(ci.mean, 10.0);
  EXPECT_NEAR(ci.half_width, 3.182 * std::sqrt(10.0 / 3.0) / 2.0, 1e-3);
  EXPECT_LT(ci.lo(), ci.mean);
  EXPECT_GT(ci.hi(), ci.mean);
}

TEST(Confidence, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(mean_ci_95({}).mean, 0.0);
  const double one[] = {5.0};
  const auto ci = mean_ci_95(one);
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "x"});
  std::ostringstream oss;
  t.write_csv(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace wmn::stats
