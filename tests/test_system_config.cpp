#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "systems/scaling.h"
#include "systems/system_config.h"
#include "systems/test_systems.h"

namespace mlck::systems {
namespace {

SystemConfig simple_two_level() {
  return SystemConfig::from_table_row("toy", 2, 100.0, {0.8, 0.2},
                                      {0.5, 2.0}, 1000.0);
}

TEST(SystemConfig, LambdaAccessors) {
  const SystemConfig cfg = simple_two_level();
  EXPECT_EQ(cfg.levels(), 2);
  EXPECT_DOUBLE_EQ(cfg.lambda_total(), 0.01);
  EXPECT_DOUBLE_EQ(cfg.lambda(0), 0.008);
  EXPECT_DOUBLE_EQ(cfg.lambda(1), 0.002);
  EXPECT_DOUBLE_EQ(cfg.lambda_cumulative(0), 0.008);
  EXPECT_DOUBLE_EQ(cfg.lambda_cumulative(1), 0.01);
}

TEST(SystemConfig, ValidateRejectsBadMtbf) {
  SystemConfig cfg = simple_two_level();
  cfg.mtbf = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SystemConfig, ValidateRejectsBadBaseTime) {
  SystemConfig cfg = simple_two_level();
  cfg.base_time = -5.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SystemConfig, ValidateRejectsSizeMismatch) {
  SystemConfig cfg = simple_two_level();
  cfg.checkpoint_cost.push_back(1.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SystemConfig, ValidateRejectsUnnormalizedSeverities) {
  SystemConfig cfg = simple_two_level();
  cfg.severity_probability = {0.5, 0.2};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SystemConfig, ValidateRejectsNegativeCosts) {
  SystemConfig cfg = simple_two_level();
  cfg.restart_cost[0] = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

/// An L-level system with uniform severities and rising costs.
SystemConfig uniform_system(int levels) {
  std::vector<double> severity(static_cast<std::size_t>(levels),
                               1.0 / levels);
  std::vector<double> cost;
  for (int k = 0; k < levels; ++k) cost.push_back(0.5 + k);
  return SystemConfig::from_table_row("L" + std::to_string(levels), levels,
                                      100.0, severity, cost, 1000.0);
}

TEST(SystemConfig, ValidateAcceptsUpToMaxLevels) {
  EXPECT_NO_THROW(uniform_system(kMaxLevels));
}

TEST(SystemConfig, ValidateRejectsMoreThanMaxLevelsByName) {
  // The model recursions keep per-level stage state in kMaxLevels-slot
  // arrays; a deeper system must be refused here with a named error,
  // not reach them (it used to segfault the optimizer).
  SystemConfig cfg = uniform_system(kMaxLevels);
  cfg.severity_probability.assign(kMaxLevels + 1, 1.0 / (kMaxLevels + 1));
  cfg.checkpoint_cost.push_back(20.0);
  cfg.restart_cost.push_back(20.0);
  try {
    cfg.validate();
    FAIL() << "a " << kMaxLevels + 1 << "-level system was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxLevels"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("17"), std::string::npos)
        << e.what();
  }
}

TEST(SystemConfig, FromTableRowRejectsLevelMismatch) {
  EXPECT_THROW(SystemConfig::from_table_row("bad", 3, 100.0, {0.8, 0.2},
                                            {0.5, 2.0}, 1000.0),
               std::invalid_argument);
}

TEST(TestSystems, ElevenSystemsInPaperOrder) {
  const auto all = table1_systems();
  ASSERT_EQ(all.size(), 11u);
  const char* expected[] = {"M",  "B",  "D1", "D2", "D3", "D4",
                            "D5", "D6", "D7", "D8", "D9"};
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
  }
}

TEST(TestSystems, AllRowsValid) {
  for (const auto& cfg : table1_systems()) {
    EXPECT_NO_THROW(cfg.validate()) << cfg.name;
  }
}

TEST(TestSystems, TranscribedValuesMatchTableOne) {
  const SystemConfig m = table1_system("M");
  EXPECT_EQ(m.levels(), 3);
  EXPECT_DOUBLE_EQ(m.mtbf, 6944.45);
  EXPECT_DOUBLE_EQ(m.severity_probability[1], 0.75);
  EXPECT_DOUBLE_EQ(m.checkpoint_cost[2], 17.53);
  EXPECT_DOUBLE_EQ(m.base_time, 1440.0);

  const SystemConfig b = table1_system("B");
  EXPECT_EQ(b.levels(), 4);
  EXPECT_DOUBLE_EQ(b.mtbf, 333.33);
  EXPECT_DOUBLE_EQ(b.severity_probability[3], 0.027);
  EXPECT_DOUBLE_EQ(b.checkpoint_cost[3], 2.5);

  const SystemConfig d9 = table1_system("D9");
  EXPECT_DOUBLE_EQ(d9.mtbf, 3.13);
  EXPECT_DOUBLE_EQ(d9.base_time, 180.0);
  EXPECT_DOUBLE_EQ(d9.checkpoint_cost[1], 5.0);
}

TEST(TestSystems, DifficultyOrderingMonotone) {
  // The paper orders systems by increasing resilience difficulty. MTBF
  // alone is not monotone (D5 trades MTBF for costlier checkpoints); the
  // PFS-cost-to-MTBF ratio — how many MTBFs one top-level checkpoint
  // burns — is, across all eleven systems.
  const auto all = table1_systems();
  double previous = 0.0;
  for (const auto& sys : all) {
    const double ratio = sys.checkpoint_cost.back() / sys.mtbf;
    EXPECT_GE(ratio, previous) << sys.name;
    previous = ratio;
  }
}

TEST(TestSystems, UnknownNameThrows) {
  EXPECT_THROW(table1_system("Z9"), std::out_of_range);
}

TEST(Scaling, OverridesOnlyPfsLevelAndMtbf) {
  const SystemConfig base = table1_system("B");
  const SystemConfig scaled = scaled_system_b(15.0, 30.0, 1440.0);
  EXPECT_DOUBLE_EQ(scaled.mtbf, 15.0);
  EXPECT_DOUBLE_EQ(scaled.checkpoint_cost.back(), 30.0);
  EXPECT_DOUBLE_EQ(scaled.restart_cost.back(), 30.0);
  for (int l = 0; l + 1 < base.levels(); ++l) {
    EXPECT_DOUBLE_EQ(scaled.checkpoint_cost[std::size_t(l)],
                     base.checkpoint_cost[std::size_t(l)]);
  }
  EXPECT_EQ(scaled.severity_probability, base.severity_probability);
}

TEST(Scaling, PaperGrids) {
  EXPECT_EQ(figure4_mtbf_grid().size(), 5u);
  EXPECT_EQ(figure4_mtbf_grid().front(), 26.0);
  EXPECT_EQ(figure4_mtbf_grid().back(), 3.0);
  EXPECT_EQ(figure4_pfs_cost_grid(), (std::vector<double>{10, 20, 30, 40}));
  EXPECT_EQ(figure5_pfs_cost_grid(), (std::vector<double>{10, 20}));
}

}  // namespace
}  // namespace mlck::systems
