#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/dauwe_model.h"
#include "core/effective.h"
#include "math/exponential.h"
#include "models/moody.h"
#include "systems/scaling.h"
#include "systems/system_config.h"
#include "systems/test_systems.h"

namespace mlck::models {
namespace {

using core::CheckpointPlan;

TEST(MoodyRecovery, TopLevelIsGeometricRetry) {
  // Single level: rho = R + (p/q) E with p = P(R, lambda), q = 1 - p.
  const auto sys = systems::SystemConfig::from_table_row(
      "single", 1, 50.0, {1.0}, {4.0}, 500.0);
  const auto plan = CheckpointPlan::single_level(10.0, 0);
  const auto eff = core::make_effective(sys, plan);
  const double lambda = 1.0 / 50.0;
  const double p = math::failure_probability(4.0, lambda);
  const double expected =
      4.0 + p / (1.0 - p) * math::truncated_mean(4.0, lambda);
  EXPECT_NEAR(MoodyModel::recovery_cost(eff, plan, 0), expected, 1e-12);
}

TEST(MoodyRecovery, NoFailuresMeansPlainRestartCost) {
  const auto sys = systems::SystemConfig::from_table_row(
      "calm", 2, 1e12, {0.5, 0.5}, {1.0, 8.0}, 500.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {3});
  const auto eff = core::make_effective(sys, plan);
  EXPECT_NEAR(MoodyModel::recovery_cost(eff, plan, 0), 1.0, 1e-6);
  EXPECT_NEAR(MoodyModel::recovery_cost(eff, plan, 1), 8.0, 1e-6);
}

TEST(MoodyRecovery, EscalationExceedsPlainRetry) {
  // Interior-level recovery must cost at least the geometric-retry value,
  // because escalations swap in a costlier restart plus lost work.
  const auto sys = systems::table1_system("D4");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {4});
  const auto eff = core::make_effective(sys, plan);
  const double rho0 = MoodyModel::recovery_cost(eff, plan, 0);
  const double lambda0 = eff.level[0].lambda;
  const double r0 = eff.level[0].restart_cost;
  const double p = math::failure_probability(r0, lambda0);
  const double plain_retry =
      r0 + p / (1.0 - p) * math::truncated_mean(r0, lambda0);
  EXPECT_GT(rho0, plain_retry);
}

TEST(MoodyModel, SteadyStateEfficiencyIndependentOfBaseTime) {
  auto sys_short = systems::table1_system("D3");
  auto sys_long = sys_short;
  sys_short.base_time = 60.0;
  sys_long.base_time = 6000.0;
  const MoodyModel model;
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
  EXPECT_NEAR(model.steady_state_efficiency(sys_short, plan),
              model.steady_state_efficiency(sys_long, plan), 1e-12);
  // Expected time therefore scales exactly linearly with T_B.
  EXPECT_NEAR(model.expected_time(sys_long, plan) /
                  model.expected_time(sys_short, plan),
              100.0, 1e-9);
}

TEST(MoodyModel, EfficiencyWithinUnitInterval) {
  const MoodyModel model;
  for (const char* name : {"M", "B", "D1", "D5", "D8"}) {
    const auto sys = systems::table1_system(name);
    const auto plan = CheckpointPlan::full_hierarchy(
        2.0, std::vector<int>(std::size_t(sys.levels() - 1), 3));
    const double e = model.steady_state_efficiency(sys, plan);
    EXPECT_GT(e, 0.0) << name;
    EXPECT_LT(e, 1.0) << name;
  }
}

TEST(MoodyModel, UncoveredSeveritiesAreInfeasible) {
  const auto sys = systems::table1_system("B");
  const MoodyModel model;
  CheckpointPlan partial;
  partial.tau0 = 2.0;
  partial.levels = {0, 1, 2};
  partial.counts = {3, 3};
  EXPECT_TRUE(std::isinf(model.expected_time(sys, partial)));
  EXPECT_EQ(model.steady_state_efficiency(sys, partial), 0.0);
}

TEST(MoodyModel, MorePessimisticThanDauweOnHarshSystems) {
  // Escalating restarts cost extra, so Moody's forecast of the same plan
  // should not be faster than Dauwe's (which retries in place).
  const core::DauweModel dauwe;
  const MoodyModel moody;
  for (const char* name : {"D5", "D7", "D8"}) {
    const auto sys = systems::table1_system(name);
    const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
    EXPECT_GE(moody.expected_time(sys, plan),
              dauwe.expected_time(sys, plan) * 0.98)
        << name;
  }
}

TEST(MoodyModel, DeeperThanMaxLevelsThrowsInsteadOfOverrunning) {
  // The per-level stage state lives in systems::kMaxLevels-slot arrays.
  // SystemConfig::validate() rejects deeper systems, but the models can
  // be handed an unvalidated one directly: both recursions must refuse
  // it rather than write past their arrays.
  const int levels = systems::kMaxLevels + 1;
  systems::SystemConfig sys;
  sys.name = "L17";
  sys.mtbf = 100.0;
  sys.base_time = 1000.0;
  sys.severity_probability.assign(std::size_t(levels), 1.0 / levels);
  sys.checkpoint_cost.assign(std::size_t(levels), 1.0);
  sys.restart_cost = sys.checkpoint_cost;
  const auto plan = CheckpointPlan::full_hierarchy(
      2.0, std::vector<int>(std::size_t(levels - 1), 1));
  EXPECT_THROW(MoodyModel().expected_time(sys, plan), std::invalid_argument);
  EXPECT_THROW(core::DauweModel().expected_time(sys, plan),
               std::invalid_argument);
}

TEST(MoodyTechnique, AlwaysKeepsEveryLevel) {
  // Sec. IV-F: the 30-minute application where Dauwe/Di drop the PFS
  // level; Moody must keep it.
  const auto sys = systems::scaled_system_b(9.0, 20.0, 30.0);
  const MoodyTechnique technique;
  const auto result = technique.select_plan(sys, nullptr);
  EXPECT_EQ(result.plan.levels.size(), 4u);
  EXPECT_EQ(result.plan.top_system_level(), 3);
  EXPECT_GT(result.predicted_efficiency, 0.0);
}

TEST(MoodyTechnique, SelectionInsensitiveToBaseTime) {
  // Because the model is steady-state, doubling the application length
  // must leave the selected pattern's quality unchanged (the search grid
  // scales with T_B, so we compare achieved steady-state efficiency
  // rather than the raw decision variables).
  const auto long_app = systems::scaled_system_b(15.0, 10.0, 1440.0);
  const auto longer_app = systems::scaled_system_b(15.0, 10.0, 2880.0);
  const MoodyTechnique technique;
  const MoodyModel model;
  const auto a = technique.select_plan(long_app, nullptr);
  const auto b = technique.select_plan(longer_app, nullptr);
  EXPECT_NEAR(model.steady_state_efficiency(long_app, a.plan),
              model.steady_state_efficiency(longer_app, b.plan), 2e-3);
}

}  // namespace
}  // namespace mlck::models
