#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "engine/evaluation.h"
#include "models/daly.h"
#include "models/moody.h"
#include "systems/scaling.h"
#include "systems/test_systems.h"
#include "util/thread_pool.h"

namespace mlck::core {
namespace {

TEST(CountLadder, DenseLowEndGeometricTail) {
  const auto ladder = count_ladder(128);
  ASSERT_GE(ladder.size(), 10u);
  // Every small count is present exactly.
  for (int v = 0; v <= 8; ++v) EXPECT_EQ(ladder[std::size_t(v)], v);
  // Strictly ascending, bounded, with bounded relative gaps.
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i], ladder[i - 1]);
    EXPECT_LE(ladder[i], 128);
    EXPECT_LE(ladder[i], ladder[i - 1] * 5 / 4 + 1);
  }
}

TEST(CountLadder, TinyMax) {
  EXPECT_EQ(count_ladder(0), std::vector<int>{0});
  EXPECT_EQ(count_ladder(2), (std::vector<int>{0, 1, 2}));
}

TEST(Optimizer, SingleLevelRecoversDalyOptimum) {
  // On a pure single-level problem the Dauwe model is Daly-like, so the
  // optimizer's tau should be close to Daly's closed form and the
  // achieved expected time at least as good.
  const auto sys = systems::SystemConfig::from_table_row(
      "single", 1, 100.0, {1.0}, {2.0}, 1000.0);
  const DauweModel model;
  const auto result = optimize_intervals(model, sys);
  const double daly_tau = models::daly_optimal_interval(2.0, 100.0);
  EXPECT_NEAR(result.plan.tau0 / daly_tau, 1.0, 0.25);
  // The optimum is flat near tau*; expected time must be within 1% of the
  // model evaluated at Daly's tau.
  const auto daly_plan = CheckpointPlan::single_level(daly_tau, 0);
  EXPECT_LE(result.expected_time,
            model.expected_time(sys, daly_plan) * 1.01);
}

TEST(Optimizer, MatchesDenseBruteForceOnTwoLevels) {
  const auto sys = systems::table1_system("D3");
  const DauweModel model;
  const auto result = optimize_intervals(model, sys);

  // Dense reference sweep (feasible because L = 2).
  double best = std::numeric_limits<double>::infinity();
  for (int ti = 0; ti < 2000; ++ti) {
    const double tau = 0.05 + 0.02 * ti;  // 0.05 .. 40.05 min
    for (int n = 0; n <= 80; ++n) {
      const auto plan = CheckpointPlan::full_hierarchy(tau, {n});
      best = std::min(best, model.expected_time(sys, plan));
    }
  }
  EXPECT_LE(result.expected_time, best * 1.005);
}

TEST(Optimizer, ResultIsFeasibleAndConsistent) {
  const auto sys = systems::table1_system("B");
  const DauweModel model;
  const auto result = optimize_intervals(model, sys);
  EXPECT_NO_THROW(result.plan.validate(sys));
  EXPECT_TRUE(std::isfinite(result.expected_time));
  EXPECT_NEAR(result.expected_time,
              model.expected_time(sys, result.plan), 1e-9);
  EXPECT_NEAR(result.efficiency, sys.base_time / result.expected_time,
              1e-12);
  EXPECT_GT(result.evaluations, 1000u);
  // The pattern bound of Sec. III-C holds.
  EXPECT_LE(result.plan.work_per_top_period(), sys.base_time);
}

TEST(Optimizer, DeterministicAcrossThreadCounts) {
  const auto sys = systems::table1_system("D5");
  const DauweModel model;
  const auto serial = optimize_intervals(model, sys);
  util::ThreadPool pool(3);
  const auto parallel = optimize_intervals(model, sys, {}, &pool);
  EXPECT_DOUBLE_EQ(serial.expected_time, parallel.expected_time);
  EXPECT_DOUBLE_EQ(serial.plan.tau0, parallel.plan.tau0);
  EXPECT_EQ(serial.plan.counts, parallel.plan.counts);
  EXPECT_EQ(serial.plan.levels, parallel.plan.levels);
}

TEST(Optimizer, RestrictLevelsHonored) {
  const auto sys = systems::table1_system("B");
  const DauweModel model;
  OptimizerOptions opts;
  opts.restrict_levels = {2, 3};
  const auto result = optimize_intervals(model, sys, opts);
  EXPECT_EQ(result.plan.levels, (std::vector<int>{2, 3}));
  EXPECT_EQ(result.plan.counts.size(), 1u);
}

TEST(Optimizer, ShortApplicationDropsTheExpensiveTopLevel) {
  // Sec. IV-F: a 30-minute application on the scaled-B system with a
  // 20-minute PFS checkpoint should not take PFS checkpoints at all.
  const auto sys = systems::scaled_system_b(9.0, 20.0, 30.0);
  const DauweModel model;
  const auto result = optimize_intervals(model, sys);
  EXPECT_LT(result.plan.top_system_level(), 3);
}

TEST(Optimizer, SuffixSkippingCanBeDisabled) {
  const auto sys = systems::scaled_system_b(9.0, 20.0, 30.0);
  const DauweModel model;
  OptimizerOptions opts;
  opts.allow_suffix_skipping = false;
  const auto result = optimize_intervals(model, sys, opts);
  EXPECT_EQ(result.plan.top_system_level(), 3);
  EXPECT_EQ(result.plan.levels.size(), 4u);
}

TEST(Optimizer, SkippingNeverHurtsTheObjective) {
  for (const char* name : {"D1", "D8"}) {
    const auto sys = systems::table1_system(name);
    const DauweModel model;
    OptimizerOptions all_levels;
    all_levels.allow_suffix_skipping = false;
    const auto fixed = optimize_intervals(model, sys, all_levels);
    const auto free = optimize_intervals(model, sys);
    EXPECT_LE(free.expected_time, fixed.expected_time * (1.0 + 1e-9))
        << name;
  }
}

TEST(Optimizer, ThrowsWhenEveryPlanIsInfeasible) {
  // The Moody model rejects plans that leave severities uncovered; with
  // the level set pinned to the bottom level only, nothing is feasible.
  const auto sys = systems::table1_system("D1");
  const models::MoodyModel model;
  OptimizerOptions opts;
  opts.restrict_levels = {0};
  EXPECT_THROW(optimize_intervals(model, sys, opts), std::runtime_error);
}

TEST(Optimizer, FactoryOverloadMatchesModelOverloadExactly) {
  // optimize_intervals_with is the hook the engine layer uses; a factory
  // whose cost function simply calls the model must reproduce the model
  // overload bit for bit — same plan, same expected time, and the same
  // number of evaluations (proving identical sweep/pruning/refinement).
  for (const char* name : {"M", "B", "D5"}) {
    const auto sys = systems::table1_system(name);
    const DauweModel model;
    const SubsetEvaluatorFactory factory =
        [&](const std::vector<int>& levels) -> PlanCostFn {
      (void)levels;
      return [&](const CheckpointPlan& plan) {
        return model.expected_time(sys, plan);
      };
    };
    const auto direct = optimize_intervals(model, sys);
    const auto hooked = optimize_intervals_with(factory, sys);
    EXPECT_EQ(direct.plan.tau0, hooked.plan.tau0) << name;
    EXPECT_EQ(direct.plan.counts, hooked.plan.counts) << name;
    EXPECT_EQ(direct.plan.levels, hooked.plan.levels) << name;
    EXPECT_EQ(direct.expected_time, hooked.expected_time) << name;
    EXPECT_EQ(direct.evaluations, hooked.evaluations) << name;
  }
}

TEST(Optimizer, FactoryIsCalledOncePerLevelSubset) {
  const auto sys = systems::table1_system("B");  // 4 levels, suffix skipping
  const DauweModel model;
  std::vector<std::vector<int>> subsets;
  const SubsetEvaluatorFactory factory =
      [&](const std::vector<int>& levels) -> PlanCostFn {
    subsets.push_back(levels);
    return [&](const CheckpointPlan& plan) {
      return model.expected_time(sys, plan);
    };
  };
  optimize_intervals_with(factory, sys);
  // Full hierarchy plus each suffix-skipped subset, each visited once.
  EXPECT_EQ(subsets.size(), 4u);
  for (std::size_t i = 1; i < subsets.size(); ++i) {
    EXPECT_NE(subsets[i], subsets[i - 1]);
  }
}

/// Shared record of a stateful cost function's calls: which object
/// (copy) made each call and at which tau0.
struct CallLog {
  std::mutex mu;
  int next_id = 0;
  std::map<int, std::vector<double>> taus_by_copy;
};

/// A PlanCostFn with per-copy mutable state and no locking of its own:
/// a copy registers under a fresh id on its first call and counts its
/// calls in a plain member. Copying yields a fresh, uncalled object, so
/// every object the optimizer calls shows up as its own entry.
class CountingCost {
 public:
  CountingCost(const systems::SystemConfig& sys, std::shared_ptr<CallLog> log)
      : sys_(&sys), log_(std::move(log)) {}
  CountingCost(const CountingCost& other)
      : sys_(other.sys_), log_(other.log_) {}

  double operator()(const CheckpointPlan& plan) {
    ++calls_;
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      if (id_ < 0) id_ = log_->next_id++;
      log_->taus_by_copy[id_].push_back(plan.tau0);
      EXPECT_EQ(log_->taus_by_copy[id_].size(), calls_)
          << "copy " << id_ << " was called concurrently";
    }
    return model_.expected_time(*sys_, plan);
  }

 private:
  const systems::SystemConfig* sys_;
  std::shared_ptr<CallLog> log_;
  DauweModel model_;
  int id_ = -1;
  std::size_t calls_ = 0;
};

TEST(Optimizer, EachSliceCallsItsOwnCostFunctionCopy) {
  // The PlanCostFn contract: copied once per (subset, tau0) slice, each
  // copy called from one thread at a time. With refinement off, every
  // evaluation is a coarse-sweep leaf, so the objects called must be
  // exactly one per slice, each seeing a single tau0 — serially and
  // under a 4-thread pool, with results identical to the model overload.
  const auto sys = systems::table1_system("B");  // 4 levels, 4 subsets
  OptimizerOptions opts;
  opts.coarse_tau_points = 12;
  opts.max_count = 12;
  opts.refine_rounds = 0;
  const DauweModel model;
  const auto direct = optimize_intervals(model, sys, opts);
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "4-thread pool");
    auto log = std::make_shared<CallLog>();
    const SubsetEvaluatorFactory factory =
        [&](const std::vector<int>&) -> PlanCostFn {
      return CountingCost(sys, log);
    };
    const auto hooked = optimize_intervals_with(factory, sys, opts, p);
    EXPECT_EQ(direct.plan.tau0, hooked.plan.tau0);
    EXPECT_EQ(direct.plan.counts, hooked.plan.counts);
    EXPECT_EQ(direct.plan.levels, hooked.plan.levels);
    EXPECT_EQ(direct.expected_time, hooked.expected_time);
    EXPECT_EQ(direct.evaluations, hooked.evaluations);
    ASSERT_EQ(hooked.evaluations, hooked.coarse_evaluations);

    EXPECT_EQ(log->taus_by_copy.size(),
              4u * static_cast<std::size_t>(opts.coarse_tau_points));
    std::size_t calls = 0;
    for (const auto& [id, taus] : log->taus_by_copy) {
      calls += taus.size();
      for (const double tau : taus) {
        EXPECT_EQ(tau, taus.front()) << "copy " << id << " spans slices";
      }
    }
    EXPECT_EQ(calls, hooked.evaluations);
  }

  // Refinement runs serially on the factory's original, after the sweep.
  auto log = std::make_shared<CallLog>();
  const SubsetEvaluatorFactory factory =
      [&](const std::vector<int>&) -> PlanCostFn {
    return CountingCost(sys, log);
  };
  OptimizerOptions refined = opts;
  refined.refine_rounds = 8;
  const auto serial = optimize_intervals_with(factory, sys, refined);
  const auto pooled = optimize_intervals_with(factory, sys, refined, &pool);
  const auto reference = optimize_intervals(model, sys, refined);
  for (const auto* r : {&serial, &pooled}) {
    EXPECT_EQ(reference.plan.tau0, r->plan.tau0);
    EXPECT_EQ(reference.plan.counts, r->plan.counts);
    EXPECT_EQ(reference.expected_time, r->expected_time);
    EXPECT_EQ(reference.evaluations, r->evaluations);
  }
}

TEST(Optimizer, SweptPlusPrunedCoversTheFullCoarseLattice) {
  // plans_pruned / plans_pruned_bound count *leaf plans* eliminated by
  // the feasibility cut and the admissible subtree bound, so together
  // with plans_swept they must account for every point of the coarse
  // lattice: tau points x ladder^dims, summed over level subsets.
  const auto sys = systems::table1_system("B");  // 4 levels, suffix skipping
  OptimizerOptions opts;
  opts.coarse_tau_points = 24;  // smaller grid, same invariant

  const std::size_t rungs = count_ladder(opts.max_count).size();
  std::size_t lattice = 0;
  for (int dims = 0; dims < sys.levels(); ++dims) {
    std::size_t leaves = 1;
    for (int d = 0; d < dims; ++d) leaves *= rungs;
    lattice += static_cast<std::size_t>(opts.coarse_tau_points) * leaves;
  }

  obs::Counter swept;
  obs::Counter pruned;
  obs::Counter pruned_bound;
  OptimizerMetrics metrics;
  metrics.plans_swept = &swept;
  metrics.plans_pruned = &pruned;
  metrics.plans_pruned_bound = &pruned_bound;
  opts.metrics = &metrics;
  const DauweModel model;
  const auto generic = optimize_intervals(model, sys, opts);
  EXPECT_GT(swept.value(), 0u);
  EXPECT_GT(pruned.value(), 0u);
  // The per-plan path never bound-prunes (no kernel to bound with).
  EXPECT_EQ(pruned_bound.value(), 0u);
  EXPECT_EQ(swept.value() + pruned.value(), lattice);
  // The result mirrors the counters.
  EXPECT_EQ(generic.coarse_evaluations, swept.value());
  EXPECT_EQ(generic.pruned_feasibility, pruned.value());
  EXPECT_EQ(generic.pruned_bound, 0u);

  // The staged kernel sweep (lane-batched and pruned) trades evaluations
  // for bound cuts but still tiles the same lattice exactly — and
  // returns the identical winner.
  const engine::EvaluationEngine eng(sys);
  obs::Counter lane_swept;
  obs::Counter lane_pruned;
  obs::Counter lane_pruned_bound;
  metrics.plans_swept = &lane_swept;
  metrics.plans_pruned = &lane_pruned;
  metrics.plans_pruned_bound = &lane_pruned_bound;
  opts.metrics = &metrics;
  const auto lanes = eng.optimize(opts);
  EXPECT_GT(lane_pruned_bound.value(), 0u);
  EXPECT_LT(lane_swept.value(), swept.value());
  EXPECT_EQ(
      lane_swept.value() + lane_pruned.value() + lane_pruned_bound.value(),
      lattice);
  EXPECT_EQ(lanes.coarse_evaluations + lanes.pruned_feasibility +
                lanes.pruned_bound,
            lattice);
  EXPECT_EQ(lanes.plan.tau0, generic.plan.tau0);
  EXPECT_EQ(lanes.plan.levels, generic.plan.levels);
  EXPECT_EQ(lanes.plan.counts, generic.plan.counts);
  EXPECT_EQ(lanes.expected_time, generic.expected_time);
}

TEST(Optimizer, ValidatesOptionsUpFrontNamingTheOffendingField) {
  const auto sys = systems::table1_system("B");
  const DauweModel model;

  // tau_min at or above the grid's upper edge used to silently produce a
  // descending / duplicate-point log grid; now it must throw and name
  // both the field and the edge.
  OptimizerOptions opts;
  opts.tau_min = sys.base_time;
  try {
    optimize_intervals(model, sys, opts);
    FAIL() << "expected std::invalid_argument for degenerate tau grid";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tau_min"), std::string::npos) << msg;
    EXPECT_NE(msg.find("base_time"), std::string::npos) << msg;
    EXPECT_NE(msg.find(sys.name), std::string::npos) << msg;
  }
  // The boundary itself is rejected too (equal lo/hi grid edges).
  opts.tau_min = sys.base_time * (1.0 - 1e-9);
  EXPECT_THROW(optimize_intervals(model, sys, opts),
               std::invalid_argument);

  opts = OptimizerOptions{};
  opts.coarse_tau_points = 0;
  EXPECT_THROW(optimize_intervals(model, sys, opts),
               std::invalid_argument);
  opts = OptimizerOptions{};
  opts.tau_min = 0.0;
  EXPECT_THROW(optimize_intervals(model, sys, opts),
               std::invalid_argument);
  opts = OptimizerOptions{};
  opts.max_count = -1;
  EXPECT_THROW(optimize_intervals(model, sys, opts),
               std::invalid_argument);
  opts = OptimizerOptions{};
  opts.refine_rounds = -1;
  EXPECT_THROW(optimize_intervals(model, sys, opts),
               std::invalid_argument);

  // The staged engine entry point validates identically.
  opts = OptimizerOptions{};
  opts.tau_min = sys.base_time * 2.0;
  const engine::EvaluationEngine eng(sys);
  EXPECT_THROW(eng.optimize(opts), std::invalid_argument);
}

/// Adversarial model for the refinement feasibility guard: finite and
/// strictly decreasing in every pattern count — even past the
/// tau0 * prod(N_j + 1) <= T_B bound, where honest models return +inf.
/// Nothing in the ExecutionTimeModel contract forbids this; only the
/// search's own guard keeps such a model from stepping refinement onto
/// an infeasible winner.
struct CountGreedyModel final : ExecutionTimeModel {
  double expected_time(const systems::SystemConfig& system,
                       const CheckpointPlan& plan) const override {
    double sum = 0.0;
    for (const int n : plan.counts) sum += n;
    // Monotone in the counts and independent of tau0: more checkpoints
    // of any level always "help", so refinement wants to walk up the
    // counts forever while tau0 stays pinned at the coarse winner
    // (tau steps never *strictly* improve).
    return system.base_time * (1.0 + 1.0 / (2.0 + sum));
  }
};

TEST(Optimizer, RefinementNeverStepsOntoAnInfeasiblePlan) {
  // Regression test for the unguarded refinement pass: the coarse sweep
  // enforces tau0 * prod(N_j + 1) <= T_B, but the count-stepping (and
  // tau-stepping) refinement loops did not, so with CountGreedyModel the
  // +1/+2/+4 steps marched past the boundary and the returned winner was
  // an infeasible plan (pattern period exceeding the base time). With
  // the guard, every stepped candidate passes the same bound as the
  // coarse sweep and the winner stays feasible.
  const auto sys = systems::SystemConfig::from_table_row(
      "guard", 2, 1000.0, {0.5, 0.5}, {0.5, 1.0}, 100.0);
  const CountGreedyModel model;
  OptimizerOptions opts;
  // A coarse grid whose lowest tau0 leaves the feasibility boundary well
  // below max_count: at tau0 = 2, only prod(N+1) <= 50 is feasible, so
  // the unguarded count steps have plenty of infeasible headroom to
  // "improve" into before hitting the max_count backstop.
  opts.tau_min = 2.0;
  opts.coarse_tau_points = 8;
  opts.max_count = 128;
  const auto result = optimize_intervals(model, sys, opts);
  EXPECT_LE(result.plan.work_per_top_period(),
            sys.base_time * (1.0 + 1e-12))
      << "refinement returned an infeasible plan: "
      << result.plan.to_string();
  EXPECT_TRUE(std::isfinite(result.expected_time));
}

TEST(Optimizer, RefinementImprovesOnCoarsePass) {
  // With refinement disabled the objective can only be worse or equal.
  const auto sys = systems::table1_system("D7");
  const DauweModel model;
  OptimizerOptions no_refine;
  no_refine.refine_rounds = 0;
  const auto coarse = optimize_intervals(model, sys, no_refine);
  const auto refined = optimize_intervals(model, sys);
  EXPECT_LE(refined.expected_time, coarse.expected_time + 1e-9);
}

}  // namespace
}  // namespace mlck::core
