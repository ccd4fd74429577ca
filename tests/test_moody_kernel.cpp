// Randomized bit-identity suite for the SCR (Moody et al.) model: the
// library evaluates plans through a per-subset kernel that hoists the
// plan-invariant half of the recursion and memoizes the bootstrap pass
// across consecutive plans. Every value must equal the frozen per-plan
// recursion in moody_reference.h bit for bit — per plan
// (expected_time, steady_state_efficiency, recovery_cost), along
// sweep-like plan sequences through one kernel (lexicographic count
// walks, refinement-style steps, tau0 changes, overflowing prefixes), and
// per search (MoodyTechnique::select_plan against optimize_intervals over
// the reference: same plan, same time, same evaluation count, with and
// without a pool). Seeds follow tests/prop_support.h: MLCK_PROP_SEED
// replays a logged failure.
//
// The kernel is file-local to src/models/moody.cpp, so this test compiles
// that file in (tests/CMakeLists.txt links it without mlck_models).
#include "models/moody.cpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/effective.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "models/moody.h"
#include "moody_reference.h"
#include "obs/metrics.h"
#include "prop_support.h"
#include "systems/system_config.h"
#include "systems/test_systems.h"
#include "util/thread_pool.h"

namespace mlck::models {
namespace {

using core::CheckpointPlan;

constexpr std::uint64_t kSeed = 0x5C2010;  // SCR, SC'10

/// Bitwise equality; NaNs compare equal to each other.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::exp(
      std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(rng));
}

/// Random 1..max_levels system spanning the model's regimes: zero-rate
/// and zero-cost levels, restarts far longer than the MTBF (certain
/// restart failure, rho = +inf) and MTBFs short enough to overflow the
/// per-stage retry terms.
systems::SystemConfig random_system(std::mt19937_64& rng, int max_levels) {
  const int L = std::uniform_int_distribution<int>(1, max_levels)(rng);
  std::bernoulli_distribution rare(0.12);
  systems::SystemConfig sys;
  sys.name = "rand";
  sys.mtbf = log_uniform(rng, 0.5, 2e4);
  sys.base_time = log_uniform(rng, 10.0, 1e5);
  double total = 0.0;
  for (int k = 0; k < L; ++k) {
    const double s =
        rare(rng) ? 0.0 : std::uniform_real_distribution<double>(0.05, 1)(rng);
    sys.severity_probability.push_back(s);
    total += s;
  }
  if (total == 0.0) {
    sys.severity_probability.back() = total = 1.0;
  }
  for (double& s : sys.severity_probability) s /= total;
  for (int k = 0; k < L; ++k) {
    sys.checkpoint_cost.push_back(rare(rng) ? 0.0
                                            : log_uniform(rng, 1e-3, 3e3));
    sys.restart_cost.push_back(rare(rng) ? 0.0 : log_uniform(rng, 1e-3, 3e3));
  }
  sys.validate();
  return sys;
}

/// Random plan over a random level subset (uncovered severities when the
/// top system level is left out), counts biased toward 0, tau0 spanning
/// sub-second to far past the MTBF.
CheckpointPlan random_plan(std::mt19937_64& rng,
                           const systems::SystemConfig& sys) {
  CheckpointPlan plan;
  std::bernoulli_distribution coin(0.5);
  if (coin(rng)) {
    for (int k = 0; k < sys.levels(); ++k) plan.levels.push_back(k);
  } else {
    for (int k = 0; k < sys.levels(); ++k) {
      if (std::bernoulli_distribution(0.6)(rng)) plan.levels.push_back(k);
    }
    if (plan.levels.empty()) plan.levels.push_back(sys.levels() - 1);
  }
  for (std::size_t k = 1; k < plan.levels.size(); ++k) {
    plan.counts.push_back(
        std::bernoulli_distribution(0.3)(rng)
            ? 0
            : std::uniform_int_distribution<int>(1, coin(rng) ? 8 : 400)(rng));
  }
  plan.tau0 = log_uniform(rng, 1e-3, 1e5);
  return plan;
}

TEST(MoodyKernelProp, PerPlanValuesBitMatchTheFrozenRecursion) {
  const std::uint64_t seed = testprop::suite_seed(kSeed);
  SCOPED_TRACE(testprop::repro(
      "MoodyKernelProp.PerPlanValuesBitMatchTheFrozenRecursion", seed));
  std::mt19937_64 rng(seed);
  const MoodyModel model;

  // Coverage of the regimes the kernel special-cases.
  int finite = 0, infinite = 0, uncovered = 0, zero_counts = 0;
  int bootstrap_overflow = 0, fixed_inf_rho = 0;
  for (int s = 0; s < 300; ++s) {
    const systems::SystemConfig sys = random_system(rng, 6);
    for (int i = 0; i < 40; ++i) {
      const CheckpointPlan plan = random_plan(rng, sys);
      SCOPED_TRACE("system " + std::to_string(s) + " plan " + plan.to_string());
      const double t_ref = testref::moody_expected_time(sys, plan);
      const double t = model.expected_time(sys, plan);
      ASSERT_TRUE(same_bits(t, t_ref)) << t << " vs " << t_ref;
      const double e_ref = testref::moody_steady_state_efficiency(sys, plan);
      const double e = model.steady_state_efficiency(sys, plan);
      ASSERT_TRUE(same_bits(e, e_ref)) << e << " vs " << e_ref;

      const core::EffectiveSystem eff = core::make_effective(sys, plan);
      for (int k = 0; k < plan.used_levels(); ++k) {
        const double r_ref = testref::moody_recovery_cost(eff, plan, k);
        const double r = MoodyModel::recovery_cost(eff, plan, k);
        ASSERT_TRUE(same_bits(r, r_ref))
            << "level " << k << ": " << r << " vs " << r_ref;
        if (std::isinf(r)) ++fixed_inf_rho;
      }

      std::isfinite(t) ? ++finite : ++infinite;
      if (eff.scratch_lambda > 0.0) ++uncovered;
      for (const int n : plan.counts) zero_counts += (n == 0);
      std::array<double, systems::kMaxLevels> rho_retry{};
      for (int k = 0; k < plan.used_levels(); ++k) {
        rho_retry[static_cast<std::size_t>(k)] =
            testref::moody_detail::retry_recovery_cost(eff, k);
      }
      std::array<double, systems::kMaxLevels> tau_entering{};
      if (!std::isfinite(testref::moody_detail::period_duration(
              eff, plan, rho_retry.data(), tau_entering.data()))) {
        ++bootstrap_overflow;
      }
    }
  }
  EXPECT_GT(finite, 1000);
  EXPECT_GT(infinite, 500);
  EXPECT_GT(uncovered, 500);
  EXPECT_GT(zero_counts, 500);
  EXPECT_GT(bootstrap_overflow, 100);
  EXPECT_GT(fixed_inf_rho, 100);
}

TEST(MoodyKernelProp, MemoizedPlanSequencesBitMatchTheFrozenRecursion) {
  // One kernel per (system, subset) carries its bootstrap memo from plan
  // to plan, exactly as one sweep slice's cost function copy does: walk
  // the count lattice in lexicographic order at fixed tau0, interleave
  // refinement-style single-count steps (counts may move back down) and
  // tau0 changes, and compare every value with a from-scratch reference.
  const std::uint64_t seed = testprop::suite_seed(kSeed + 2);
  SCOPED_TRACE(testprop::repro(
      "MoodyKernelProp.MemoizedPlanSequencesBitMatchTheFrozenRecursion",
      seed));
  std::mt19937_64 rng(seed);
  const std::vector<int> ladder = {0, 1, 2, 4, 7};

  int evaluations = 0, finite = 0, overflowing_prefix = 0, steps = 0;
  for (int s = 0; s < 100; ++s) {
    const systems::SystemConfig sys = random_system(rng, 6);
    CheckpointPlan plan = random_plan(rng, sys);
    MoodyKernel kernel(core::make_effective(sys, plan));
    const std::size_t dims = plan.counts.size();
    const auto check = [&](const CheckpointPlan& p) {
      SCOPED_TRACE("system " + std::to_string(s) + " plan " + p.to_string());
      const double t = kernel.expected_time(sys.base_time, p);
      const double t_ref = testref::moody_expected_time(sys, p);
      ASSERT_TRUE(same_bits(t, t_ref)) << t << " vs " << t_ref;
      ++evaluations;
      if (std::isfinite(t)) ++finite;
      const core::EffectiveSystem eff = core::make_effective(sys, p);
      std::array<double, systems::kMaxLevels> rho_retry{};
      for (int k = 0; k < p.used_levels(); ++k) {
        rho_retry[static_cast<std::size_t>(k)] =
            testref::moody_detail::retry_recovery_cost(eff, k);
      }
      if (!std::isfinite(testref::moody_detail::period_duration(
              eff, p, rho_retry.data(), nullptr))) {
        ++overflowing_prefix;
      }
    };
    for (int t = 0; t < 4; ++t) {
      plan.tau0 = log_uniform(rng, 1e-3, 1e5);
      std::vector<std::size_t> rung(dims, 0);
      while (true) {
        for (std::size_t d = 0; d < dims; ++d) plan.counts[d] = ladder[rung[d]];
        check(plan);
        if (dims > 0 && std::bernoulli_distribution(0.2)(rng)) {
          CheckpointPlan stepped = plan;
          auto& n = stepped.counts[std::uniform_int_distribution<std::size_t>(
              0, dims - 1)(rng)];
          n = std::max(0, n + std::uniform_int_distribution<int>(-4, 4)(rng));
          check(stepped);
          ++steps;
        }
        std::size_t d = dims;
        while (d > 0 && ++rung[d - 1] == ladder.size()) rung[--d] = 0;
        if (d == 0) break;
      }
    }
  }
  EXPECT_GT(evaluations, 50000);
  EXPECT_GT(finite, 10000);
  EXPECT_GT(overflowing_prefix, 10000);
  EXPECT_GT(steps, 10000);
}

/// Full coarse sweep + refinement through the kernel (stateful, one cost
/// copy per slice) against the reference model overload.
void expect_same_selection(const systems::SystemConfig& sys,
                           const core::OptimizerOptions& opts,
                           util::ThreadPool* pool) {
  obs::Counter swept, refined;
  core::OptimizerMetrics metrics;
  metrics.plans_swept = &swept;
  metrics.plans_refined = &refined;
  core::OptimizerOptions with_metrics = opts;
  with_metrics.metrics = &metrics;
  core::OptimizerOptions ref_opts = opts;
  ref_opts.allow_suffix_skipping = false;  // as MoodyTechnique forces

  const testref::MoodyReferenceModel reference;
  core::OptimizationResult expected;
  bool ref_feasible = true;
  try {
    expected = core::optimize_intervals(reference, sys, ref_opts, pool);
  } catch (const std::runtime_error&) {
    ref_feasible = false;
  }
  const MoodyTechnique technique(with_metrics);
  if (!ref_feasible) {
    EXPECT_THROW(technique.select_plan(sys, pool), std::runtime_error);
    return;
  }
  const core::TechniqueResult got = technique.select_plan(sys, pool);
  EXPECT_EQ(got.plan.levels, expected.plan.levels);
  EXPECT_EQ(got.plan.counts, expected.plan.counts);
  EXPECT_TRUE(same_bits(got.plan.tau0, expected.plan.tau0));
  EXPECT_TRUE(same_bits(got.predicted_time, expected.expected_time));
  EXPECT_TRUE(same_bits(got.predicted_efficiency, expected.efficiency));
  EXPECT_EQ(swept.value() + refined.value(), expected.evaluations);
}

TEST(MoodyKernelProp, SelectPlanMatchesTheReferenceSearch) {
  const std::uint64_t seed = testprop::suite_seed(kSeed + 1);
  SCOPED_TRACE(testprop::repro(
      "MoodyKernelProp.SelectPlanMatchesTheReferenceSearch", seed));
  std::mt19937_64 rng(seed);
  util::ThreadPool pool(4);
  for (int s = 0; s < 30; ++s) {
    const systems::SystemConfig sys = random_system(rng, 5);
    core::OptimizerOptions opts;
    opts.coarse_tau_points = std::uniform_int_distribution<int>(1, 14)(rng);
    // Keep the lattice small: ladder^(levels-1) leaves per tau point.
    opts.max_count = std::uniform_int_distribution<int>(
        0, sys.levels() >= 4 ? 6 : 16)(rng);
    opts.refine_rounds = std::uniform_int_distribution<int>(0, 6)(rng);
    if (std::bernoulli_distribution(0.25)(rng)) {
      for (int k = 0; k < sys.levels(); ++k) {
        if (std::bernoulli_distribution(0.6)(rng)) {
          opts.restrict_levels.push_back(k);
        }
      }
    }
    SCOPED_TRACE("system " + std::to_string(s) + " (" +
                 std::to_string(sys.levels()) + " levels)");
    expect_same_selection(sys, opts, nullptr);
    expect_same_selection(sys, opts, &pool);
  }
}

TEST(MoodyKernelProp, SelectPlanMatchesTheReferenceSearchOnTableOne) {
  // Default search options, the configuration every paper figure uses,
  // on the seven Table I systems bench_optimizer also covers.
  util::ThreadPool pool(4);
  for (const char* name : {"B", "M", "D1", "D3", "D5", "D7", "D9"}) {
    SCOPED_TRACE(name);
    const auto sys = systems::table1_system(name);
    expect_same_selection(sys, {}, nullptr);
    expect_same_selection(sys, {}, &pool);
  }
}

}  // namespace
}  // namespace mlck::models
