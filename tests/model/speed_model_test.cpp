#include "model/speed_model.hpp"

#include <gtest/gtest.h>

namespace easched::model {
namespace {

TEST(SpeedModel, ContinuousRange) {
  const auto m = SpeedModel::continuous(0.5, 2.0);
  EXPECT_EQ(m.kind(), SpeedModelKind::kContinuous);
  EXPECT_FALSE(m.is_discrete_kind());
  EXPECT_DOUBLE_EQ(m.fmin(), 0.5);
  EXPECT_DOUBLE_EQ(m.fmax(), 2.0);
  EXPECT_TRUE(m.admissible(1.3));
  EXPECT_TRUE(m.admissible(0.5));
  EXPECT_TRUE(m.admissible(2.0));
  EXPECT_FALSE(m.admissible(0.4));
  EXPECT_FALSE(m.admissible(2.1));
  EXPECT_TRUE(m.levels().empty());
}

TEST(SpeedModel, DiscreteLevelsSortedAndDeduped) {
  const auto m = SpeedModel::discrete({1.0, 0.5, 1.0, 2.0});
  EXPECT_EQ(m.kind(), SpeedModelKind::kDiscrete);
  ASSERT_EQ(m.num_levels(), 3);
  EXPECT_DOUBLE_EQ(m.levels()[0], 0.5);
  EXPECT_DOUBLE_EQ(m.levels()[2], 2.0);
  EXPECT_DOUBLE_EQ(m.fmin(), 0.5);
  EXPECT_DOUBLE_EQ(m.fmax(), 2.0);
}

TEST(SpeedModel, DiscreteAdmissibility) {
  const auto m = SpeedModel::discrete({0.5, 1.0, 2.0});
  EXPECT_TRUE(m.admissible(1.0));
  EXPECT_FALSE(m.admissible(1.5));
  EXPECT_FALSE(m.admissible(0.4));
}

TEST(SpeedModel, VddSharesLevelSemantics) {
  const auto m = SpeedModel::vdd_hopping({1.0, 0.6});
  EXPECT_EQ(m.kind(), SpeedModelKind::kVddHopping);
  EXPECT_TRUE(m.is_discrete_kind());
  EXPECT_EQ(m.num_levels(), 2);
}

TEST(SpeedModel, IncrementalLevelsRegular) {
  const auto m = SpeedModel::incremental(1.0, 2.0, 0.25);
  EXPECT_EQ(m.kind(), SpeedModelKind::kIncremental);
  EXPECT_DOUBLE_EQ(m.delta(), 0.25);
  ASSERT_EQ(m.num_levels(), 5);
  EXPECT_DOUBLE_EQ(m.levels()[1], 1.25);
  EXPECT_DOUBLE_EQ(m.levels()[4], 2.0);
}

TEST(SpeedModel, IncrementalNonDivisibleRangeKeepsFmax) {
  const auto m = SpeedModel::incremental(1.0, 1.9, 0.4);
  // Levels 1.0, 1.4, 1.8, then fmax 1.9.
  ASSERT_EQ(m.num_levels(), 4);
  EXPECT_DOUBLE_EQ(m.levels().back(), 1.9);
}

TEST(SpeedModel, RoundUp) {
  const auto m = SpeedModel::discrete({0.5, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(m.round_up(0.7).value(), 1.0);
  EXPECT_DOUBLE_EQ(m.round_up(1.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(m.round_up(0.1).value(), 0.5);
  EXPECT_FALSE(m.round_up(2.5).is_ok());
}

TEST(SpeedModel, RoundDown) {
  const auto m = SpeedModel::discrete({0.5, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(m.round_down(0.7).value(), 0.5);
  EXPECT_DOUBLE_EQ(m.round_down(2.0).value(), 2.0);
  EXPECT_DOUBLE_EQ(m.round_down(5.0).value(), 2.0);
  EXPECT_FALSE(m.round_down(0.2).is_ok());
}

TEST(SpeedModel, RoundingOnContinuousClamps) {
  const auto m = SpeedModel::continuous(0.5, 2.0);
  EXPECT_DOUBLE_EQ(m.round_up(0.2).value(), 0.5);
  EXPECT_DOUBLE_EQ(m.round_up(1.3).value(), 1.3);
  EXPECT_DOUBLE_EQ(m.round_down(3.0).value(), 2.0);
}

TEST(SpeedModel, Bracket) {
  const auto m = SpeedModel::vdd_hopping({0.5, 1.0, 2.0});
  auto [lo1, hi1] = m.bracket(0.7);
  EXPECT_DOUBLE_EQ(lo1, 0.5);
  EXPECT_DOUBLE_EQ(hi1, 1.0);
  auto [lo2, hi2] = m.bracket(2.0);
  EXPECT_DOUBLE_EQ(lo2, 2.0);
  EXPECT_DOUBLE_EQ(hi2, 2.0);
  auto [lo3, hi3] = m.bracket(0.1);  // clamped to fmin
  EXPECT_DOUBLE_EQ(lo3, 0.5);
  auto [lo4, hi4] = m.bracket(9.0);  // clamped to fmax
  EXPECT_DOUBLE_EQ(lo4, 2.0);
  EXPECT_DOUBLE_EQ(hi4, 2.0);
  (void)hi3;
}

TEST(SpeedModel, InvalidConstructionThrows) {
  EXPECT_THROW(SpeedModel::continuous(0.0, 1.0), std::logic_error);
  EXPECT_THROW(SpeedModel::continuous(2.0, 1.0), std::logic_error);
  EXPECT_THROW(SpeedModel::discrete({}), std::logic_error);
  EXPECT_THROW(SpeedModel::discrete({-1.0, 1.0}), std::logic_error);
  EXPECT_THROW(SpeedModel::incremental(1.0, 2.0, 0.0), std::logic_error);
}

TEST(SpeedModel, IncrementalLevelCountIsBounded) {
  // At the cap the model builds; a step twice as fine is refused before
  // the loop allocates anything.
  const double at_cap = 1.0 / SpeedModel::kMaxIncrementalLevels;
  EXPECT_EQ(SpeedModel::incremental(1.0, 2.0, at_cap).num_levels(),
            SpeedModel::kMaxIncrementalLevels + 1);
  EXPECT_THROW(SpeedModel::incremental(1.0, 2.0, at_cap / 2), std::logic_error);
  EXPECT_THROW(SpeedModel::incremental(1.0, 2.0, 1e-9), std::logic_error);
  // 1 + 1e-20 == 1: without the check the loop would never end.
  EXPECT_THROW(SpeedModel::incremental(1.0, 2.0, 1e-20), std::logic_error);
  // Few levels, but a step below fmax's precision: f += delta stalls.
  ASSERT_EQ(1.0 + 1e-16, 1.0);
  EXPECT_THROW(SpeedModel::incremental(1.0, 1.0 + 5e-12, 1e-16), std::logic_error);
}

TEST(SpeedModel, XscaleLevels) {
  const auto levels = xscale_levels();
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_DOUBLE_EQ(levels.front(), 0.15);
  EXPECT_DOUBLE_EQ(levels.back(), 1.0);
}

TEST(SpeedModel, KindNames) {
  EXPECT_STREQ(to_string(SpeedModelKind::kContinuous), "CONTINUOUS");
  EXPECT_STREQ(to_string(SpeedModelKind::kVddHopping), "VDD-HOPPING");
}

}  // namespace
}  // namespace easched::model
