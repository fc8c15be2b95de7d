// Tests for the saturation score (Eq. 3) and its stated properties:
// bounded in [0,1], 1.0 iff fully resolved (or singleton), monotone under
// refinement, and the ablation forms.
#include <gtest/gtest.h>

#include <cmath>

#include "core/preprocess.h"
#include "core/saturation.h"
#include "test_logs.h"

namespace bytebrain {
namespace {

std::vector<uint32_t> AllOf(const std::vector<EncodedLog>& logs) {
  std::vector<uint32_t> v(logs.size());
  for (uint32_t i = 0; i < v.size(); ++i) v[i] = i;
  return v;
}

const SaturationOptions kDefault;

TEST(PositionStatsTest, CountsDistinctAndConstant) {
  auto logs = MakeLogs({{"a", "x", "c"}, {"a", "y", "c"}, {"a", "z", "c"}});
  auto stats = ComputePositionStats(logs, AllOf(logs));
  EXPECT_EQ(stats.num_logs, 3u);
  EXPECT_EQ(stats.num_positions, 3u);
  EXPECT_EQ(stats.num_constant, 2u);
  EXPECT_EQ(stats.distinct[0], 1u);
  EXPECT_EQ(stats.distinct[1], 3u);
  EXPECT_EQ(stats.distinct[2], 1u);
  EXPECT_FALSE(stats.fully_resolved());
}

TEST(SaturationTest, SingletonIsOne) {
  auto logs = MakeLogs({{"a", "b"}});
  EXPECT_DOUBLE_EQ(ComputeSaturation(logs, {0}, kDefault), 1.0);
}

TEST(SaturationTest, IdenticalLogsAreOne) {
  auto logs = MakeLogs({{"a", "b"}, {"a", "b"}, {"a", "b"}});
  EXPECT_DOUBLE_EQ(ComputeSaturation(logs, AllOf(logs), kDefault), 1.0);
}

TEST(SaturationTest, PaperFigure5Set1LabelIsOne) {
  // Fig. 5 Set 1, node {1,2,3} labeled 1.0: only the token value varies
  // and it differs in every log — a confirmed variable, fully resolved.
  auto logs = MakeLogs({{"UserService", "createUser", "token", "abc123", "success"},
                        {"UserService", "createUser", "token", "xyz789", "success"},
                        {"UserService", "createUser", "token", "def456", "success"}});
  EXPECT_DOUBLE_EQ(ComputeSaturation(logs, AllOf(logs), kDefault), 1.0);
}

TEST(SaturationTest, PaperFigure5Set2Labels) {
  // Fig. 5 Set 2: labels {4,5,6}: 0.4, {4,6}: 0.6, {5}/{4}/{6}: 1.0.
  auto set2 = MakeLogs(
      {{"UserService", "createUser", "token", "abc123", "success"},
       {"UserService", "deleteUser", "token", "xyz789", "failed"},
       {"UserService", "queryUser", "token", "def456", "success"}});
  // Root {4,5,6}: f_c = 0.4, f_v = log2/log3, p_c = 1/7 -> 0.379 (the
  // figure label rounds to 0.4).
  const double root = ComputeSaturation(set2, AllOf(set2), kDefault);
  EXPECT_NEAR(root, 0.4, 0.05);
  // {4,6}: f_c = 0.6 and both unresolved positions are fully distinct
  // (f_v = 1), so Eq. 3 collapses to exactly f_c = 0.6.
  const double sub = ComputeSaturation(set2, {0, 2}, kDefault);
  EXPECT_DOUBLE_EQ(sub, 0.6);
  EXPECT_GT(sub, root);
  // Leaf singletons are 1.0.
  EXPECT_DOUBLE_EQ(ComputeSaturation(set2, {1}, kDefault), 1.0);
}

TEST(SaturationTest, BoundedInUnitInterval) {
  auto logs = MakeLogs({{"a", "1", "x"},
                        {"b", "2", "x"},
                        {"c", "3", "y"},
                        {"d", "4", "y"}});
  for (auto& members : std::vector<std::vector<uint32_t>>{
           {0, 1, 2, 3}, {0, 1}, {2, 3}, {0, 2}, {1, 3}, {0}}) {
    const double s = ComputeSaturation(logs, members, kDefault);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(SaturationTest, NoConstantsScoresZero) {
  // f_c = 0 forces s = 0 regardless of the variability term.
  auto logs = MakeLogs({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  EXPECT_DOUBLE_EQ(ComputeSaturation(logs, AllOf(logs), kDefault), 0.0);
}

TEST(SaturationTest, MoreConstantsScoreHigher) {
  auto one_const = MakeLogs({{"k", "1", "x"}, {"k", "2", "y"}});
  auto two_const = MakeLogs({{"k", "1", "x"}, {"k", "2", "x"}});
  EXPECT_LT(ComputeSaturation(one_const, {0, 1}, kDefault),
            ComputeSaturation(two_const, {0, 1}, kDefault));
}

TEST(SaturationTest, HighVariabilityBeatsLowVariabilityStructure) {
  // All-distinct unresolved position (true variable) vs a two-valued
  // unresolved position (structural split pending): the former is closer
  // to "resolved".
  auto variable = MakeLogs({{"k", "v1"}, {"k", "v2"}, {"k", "v3"}, {"k", "v4"}});
  auto structural = MakeLogs({{"k", "a"}, {"k", "a"}, {"k", "b"}, {"k", "b"}});
  EXPECT_GT(ComputeSaturation(variable, AllOf(variable), kDefault),
            ComputeSaturation(structural, AllOf(structural), kDefault));
}

TEST(SaturationTest, AblationWithoutVariableTermIsConstantFraction) {
  auto logs = MakeLogs({{"a", "x", "1"}, {"a", "y", "2"}, {"a", "z", "3"}});
  SaturationOptions opts;
  opts.use_variable_term = false;
  EXPECT_DOUBLE_EQ(ComputeSaturation(logs, AllOf(logs), opts), 1.0 / 3.0);
}

TEST(SaturationTest, AblationWithoutConfidenceIsProduct) {
  // Two unresolved positions (so the Set-1 rule cannot fire): action has
  // 2 of 3 distinct, status has 2 of 3 distinct.
  auto logs = MakeLogs(
      {{"a", "x", "p"}, {"a", "x", "q"}, {"a", "y", "q"}});
  SaturationOptions opts;
  opts.use_confidence_factor = false;
  // f_v = log(2)/log(3), f_c = 1/3.
  const double expected = (std::log(2.0) / std::log(3.0)) / 3.0;
  EXPECT_NEAR(ComputeSaturation(logs, AllOf(logs), opts), expected, 1e-12);
}

TEST(SaturationTest, RefinementNeverDecreasesScore) {
  // Property: for any subset obtained by grouping identical tokens at one
  // position, saturation does not decrease (it strictly increases when
  // the position was structurally meaningful).
  auto logs = MakeLogs({{"svc", "open", "ok", "1"},
                        {"svc", "open", "ok", "2"},
                        {"svc", "close", "err", "3"},
                        {"svc", "close", "err", "4"}});
  const double parent = ComputeSaturation(logs, AllOf(logs), kDefault);
  const double open_side = ComputeSaturation(logs, {0, 1}, kDefault);
  const double close_side = ComputeSaturation(logs, {2, 3}, kDefault);
  EXPECT_GT(open_side, parent);
  EXPECT_GT(close_side, parent);
}

TEST(SaturationTest, ManyUnresolvedPositionsDriveConfidenceToZero) {
  // With >62 unresolved positions the confidence shift would overflow;
  // verify the guard by constructing 70 unresolved positions.
  std::vector<std::string> row_a;
  std::vector<std::string> row_b;
  row_a.push_back("const");
  row_b.push_back("const");
  for (int i = 0; i < 70; ++i) {
    row_a.push_back("a" + std::to_string(i));
    row_b.push_back("b" + std::to_string(i));
  }
  auto logs = MakeLogs({row_a, row_b});
  const double s = ComputeSaturation(logs, {0, 1}, kDefault);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
  // p_c ~ 0 -> s ~ f_c = 1/71.
  EXPECT_NEAR(s, 1.0 / 71.0, 1e-6);
}

}  // namespace
}  // namespace bytebrain
