#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "core/plan.h"
#include "math/failure_law.h"
#include "obs/trace.h"
#include "prop_support.h"
#include "sim/compiled_schedule.h"
#include "sim/fast_forward.h"
#include "sim/reference_simulator.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "systems/scaling.h"
#include "systems/test_systems.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// The batch engine's contract (bench_sim's gate, docs/PERFORMANCE.md):
// byte-identical results to the frozen reference engine on equal seeds.
// These tests pin that contract — every comparison below is exact ==,
// never EXPECT_NEAR.

namespace mlck::sim {
namespace {

using core::CheckpointPlan;
using Script = std::vector<ScriptedFailureSource::AbsoluteFailure>;

systems::SystemConfig toy_system() {
  // 2 levels, delta = R = {1, 4}, T_B = 30 (same toy as test_simulator).
  return systems::SystemConfig::from_table_row("toy", 2, 100.0, {0.8, 0.2},
                                               {1.0, 4.0}, 30.0);
}

CheckpointPlan toy_plan() { return CheckpointPlan::full_hierarchy(5.0, {2}); }

void expect_same_result(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.capped, b.capped);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.checkpoints_completed, b.checkpoints_completed);
  EXPECT_EQ(a.restarts_completed, b.restarts_completed);
  EXPECT_EQ(a.restarts_failed, b.restarts_failed);
  EXPECT_EQ(a.scratch_restarts, b.scratch_restarts);
  EXPECT_EQ(a.breakdown.useful, b.breakdown.useful);
  EXPECT_EQ(a.breakdown.checkpoint_ok, b.breakdown.checkpoint_ok);
  EXPECT_EQ(a.breakdown.checkpoint_failed, b.breakdown.checkpoint_failed);
  EXPECT_EQ(a.breakdown.restart_ok, b.breakdown.restart_ok);
  EXPECT_EQ(a.breakdown.restart_failed, b.breakdown.restart_failed);
  EXPECT_EQ(a.breakdown.rework_compute, b.breakdown.rework_compute);
  EXPECT_EQ(a.breakdown.rework_checkpoint, b.breakdown.rework_checkpoint);
  EXPECT_EQ(a.breakdown.rework_restart, b.breakdown.rework_restart);
}

void expect_same_summary(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

void expect_same_stats(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.capped_trials, b.capped_trials);
  EXPECT_EQ(a.mean_failures, b.mean_failures);
  expect_same_summary(a.efficiency, b.efficiency);
  expect_same_summary(a.total_time, b.total_time);
  EXPECT_EQ(a.efficiency_quantiles.p05, b.efficiency_quantiles.p05);
  EXPECT_EQ(a.efficiency_quantiles.p25, b.efficiency_quantiles.p25);
  EXPECT_EQ(a.efficiency_quantiles.median, b.efficiency_quantiles.median);
  EXPECT_EQ(a.efficiency_quantiles.p75, b.efficiency_quantiles.p75);
  EXPECT_EQ(a.efficiency_quantiles.p95, b.efficiency_quantiles.p95);
  EXPECT_EQ(a.time_shares.useful, b.time_shares.useful);
  EXPECT_EQ(a.time_shares.checkpoint_ok, b.time_shares.checkpoint_ok);
  EXPECT_EQ(a.time_shares.restart_ok, b.time_shares.restart_ok);
  EXPECT_EQ(a.time_shares.rework_compute, b.time_shares.rework_compute);
}

// ---------------------------------------------------------------------------
// CompiledSchedule

TEST(CompiledSchedule, PlanCompilesToItsTriggerSequence) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  ASSERT_TRUE(compiled.compiled());
  // T_B = 30, tau0 = 5: triggers after 5..25 (none at 30, the run ends).
  ASSERT_EQ(compiled.trigger_count(), 5u);
  const auto& trig = compiled.triggers();
  for (std::size_t i = 0; i < trig.size(); ++i) {
    EXPECT_DOUBLE_EQ(trig[i].work, 5.0 * static_cast<double>(i + 1));
  }
  // Pattern {2}: levels 0,0,1 cycling -> trigger 3 (j=3) is the level-1.
  EXPECT_EQ(trig[2].used_index, 1);
  EXPECT_EQ(trig[0].used_index, 0);
}

TEST(CompiledSchedule, CursorRecoversAfterRollback) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  auto cursor = compiled.cursor();
  // Forward path to the end...
  for (int j = 1; j <= 5; ++j) {
    const auto p = cursor.next(5.0 * (j - 1));
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->work, 5.0 * j);
  }
  EXPECT_FALSE(cursor.next(25.0).has_value());
  // ...then a rollback to scratch and to a mid-run checkpoint: the cursor
  // hint is far ahead, the uniform-grid arithmetic path must recover.
  auto after_scratch = cursor.next(0.0);
  ASSERT_TRUE(after_scratch.has_value());
  EXPECT_DOUBLE_EQ(after_scratch->work, 5.0);
  auto after_restore = cursor.next(15.0);
  ASSERT_TRUE(after_restore.has_value());
  EXPECT_DOUBLE_EQ(after_restore->work, 20.0);
}

TEST(CompiledSchedule, NonUniformGridRollbackUsesBinarySearch) {
  const auto sys = toy_system();
  core::IntervalSchedule schedule;
  schedule.levels = {0, 1};
  schedule.periods = {4.0, 9.0};  // collision-free, non-uniform triggers
  const auto compiled = CompiledSchedule::from_schedule(sys, schedule);
  ASSERT_TRUE(compiled.compiled());
  auto cursor = compiled.cursor();
  // Drain forward, then roll back several positions and re-query each.
  std::vector<core::CheckpointPoint> seen;
  double work = 0.0;
  for (auto p = cursor.next(work); p.has_value(); p = cursor.next(work)) {
    seen.push_back(*p);
    work = p->work;
  }
  ASSERT_GT(seen.size(), 3u);
  for (std::size_t k = seen.size(); k-- > 0;) {
    const double from = k == 0 ? 0.0 : seen[k - 1].work;
    const auto p = cursor.next(from);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->work, seen[k].work);
    EXPECT_EQ(p->used_index, seen[k].used_index);
  }
}

TEST(CompiledSchedule, AdaptiveStaysInCallbackMode) {
  const auto sys = toy_system();
  const auto adaptive = core::make_adaptive(sys, toy_plan());
  const auto compiled = CompiledSchedule::from_adaptive(sys, adaptive);
  EXPECT_FALSE(compiled.compiled());
  EXPECT_EQ(compiled.trigger_count(), 0u);
  // The callback path must serve the schedule's own query sequence.
  auto cursor = compiled.cursor();
  double work = 0.0;
  for (auto expected = adaptive.next_checkpoint(work); expected.has_value();
       expected = adaptive.next_checkpoint(work)) {
    const auto got = cursor.next(work);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->work, expected->work);
    EXPECT_EQ(got->used_index, expected->used_index);
    work = expected->work;
  }
  EXPECT_FALSE(cursor.next(work).has_value());
}

// ---------------------------------------------------------------------------
// NoFailureTrajectory

TEST(FastForward, FullSkipReproducesTheNoFailureTrial) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  const SimOptions options;
  const NoFailureTrajectory trajectory(sys, compiled, options);
  ASSERT_TRUE(trajectory.valid());
  ScriptedFailureSource none({});
  const TrialResult plain = simulate(sys, compiled, none, options);
  expect_same_result(trajectory.full_result(), plain);
  EXPECT_EQ(trajectory.final_end(), plain.total_time);
  // One full segment per trigger (the tail segment has no checkpoint).
  EXPECT_EQ(trajectory.segment_end().size(), compiled.trigger_count());
}

TEST(FastForward, MidRunJumpMatchesThePlainLoopExactly) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  const SimOptions options;
  const NoFailureTrajectory trajectory(sys, compiled, options);
  ASSERT_TRUE(trajectory.valid());
  // Sweep a first failure across the whole run — compute phases,
  // checkpoint phases, both severities — plus a second failure so the
  // post-jump state (slots, work, clock) is exercised, not just reported.
  for (double t = 0.25; t < 40.0; t += 0.46875) {
    for (int severity = 0; severity < 2; ++severity) {
      const Script script = {{t, severity}, {t + 7.3, 0}};
      ScriptedFailureSource with_fast(script);
      ScriptedFailureSource without(script);
      const TrialResult fast =
          simulate(sys, compiled, with_fast, options, &trajectory);
      const TrialResult slow = simulate(sys, compiled, without, options);
      SCOPED_TRACE(::testing::Message()
                   << "first failure t=" << t << " severity=" << severity);
      expect_same_result(fast, slow);
    }
  }
}

TEST(FastForward, CapBeforeTheEndInvalidatesTheTrajectory) {
  auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  SimOptions options;
  options.max_time_factor = 1.0;  // cap = T_B < no-failure total time
  const NoFailureTrajectory trajectory(sys, compiled, options);
  EXPECT_FALSE(trajectory.valid());
  EXPECT_FALSE(trajectory.applicable(options));
}

TEST(FastForward, TracingAndOptionMismatchesSuppressTheFastPath) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  const SimOptions options;
  const NoFailureTrajectory trajectory(sys, compiled, options);
  ASSERT_TRUE(trajectory.applicable(options));
  SimOptions traced = options;
  std::vector<TraceEvent> events;
  traced.trace = &events;
  EXPECT_FALSE(trajectory.applicable(traced));
  SimOptions final_ckpt = options;
  final_ckpt.take_final_checkpoint = true;
  EXPECT_FALSE(trajectory.applicable(final_ckpt));
  SimOptions other_cap = options;
  other_cap.max_time_factor = options.max_time_factor * 2.0;
  EXPECT_FALSE(trajectory.applicable(other_cap));
}

TEST(FastForward, CallbackModeScheduleNeverValidates) {
  const auto sys = toy_system();
  const auto adaptive = core::make_adaptive(sys, toy_plan());
  const auto compiled = CompiledSchedule::from_adaptive(sys, adaptive);
  const NoFailureTrajectory trajectory(sys, compiled, SimOptions{});
  EXPECT_FALSE(trajectory.valid());
}

// ---------------------------------------------------------------------------
// Batch engine vs frozen reference engine

TEST(BatchIdentity, SimulateMatchesReferenceAcrossRandomTrials) {
  const std::uint64_t seed = testprop::suite_seed(0x9b5bull);
  SCOPED_TRACE(testprop::repro(
      "BatchIdentity.SimulateMatchesReferenceAcrossRandomTrials", seed));
  const auto systems = systems::table1_systems();
  for (const auto& sys : systems) {
    const auto plan =
        CheckpointPlan::full_hierarchy(sys.base_time / 96.0,
                                       std::vector<int>(
                                           static_cast<std::size_t>(
                                               sys.levels() - 1),
                                           2));
    for (std::uint64_t k = 0; k < 8; ++k) {
      const std::uint64_t trial_seed = util::derive_stream_seed(seed, k);
      RandomFailureSource a(sys, util::Rng(trial_seed));
      RandomFailureSource b(sys, util::Rng(trial_seed));
      SCOPED_TRACE(::testing::Message() << sys.name << " trial " << k);
      expect_same_result(simulate(sys, plan, a), reference::simulate(sys, plan, b));
    }
  }
}

TEST(BatchIdentity, RunTrialsMatchesReferenceFieldForField) {
  const auto sys = systems::table1_system("D3");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {4});
  const TrialStats batch = run_trials(sys, plan, 64, 20180521);
  const TrialStats ref = reference::run_trials(sys, plan, 64, 20180521);
  expect_same_stats(batch, ref);
}

TEST(BatchIdentity, PooledRunTrialsMatchesReferenceFieldForField) {
  const auto sys = systems::table1_system("D5");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {3});
  util::ThreadPool pool(4);
  const TrialStats batch = run_trials(sys, plan, 64, 42, {}, &pool);
  const TrialStats ref = reference::run_trials(sys, plan, 64, 42);
  expect_same_stats(batch, ref);
}

TEST(BatchIdentity, RenewalProcessMatchesReferenceFieldForField) {
  const auto sys = systems::table1_system("M");
  const auto plan = CheckpointPlan::full_hierarchy(20.0, {4});
  const auto law = math::FailureLaw::weibull(0.7);
  const auto dist = law->distribution(sys.mtbf);
  const TrialStats batch =
      run_trials_with_distribution(sys, plan, *dist, 48, 7);
  const TrialStats ref =
      reference::run_trials_with_distribution(sys, plan, *dist, 48, 7);
  expect_same_stats(batch, ref);
}

TEST(BatchIdentity, CaptureDoesNotPerturbResults) {
  const auto sys = systems::table1_system("D1");
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {4});
  const TrialStats bare = run_trials(sys, plan, 32, 11);
  TrialTraceCapture capture;
  capture.max_trials = 4;
  SimOptions options;
  options.capture = &capture;
  const TrialStats captured = run_trials(sys, plan, 32, 11, options);
  expect_same_stats(bare, captured);
  ASSERT_EQ(capture.trials.size(), 4u);
  for (const TrialTrace& t : capture.trials) {
    EXPECT_FALSE(t.events.empty());
  }
}

// ---------------------------------------------------------------------------
// Restart storms: the Figure 4/6 capped cells (MTBF = 3 min, PFS restarts
// of 20-40 min), where almost every event is a failed restart retried in
// place. The runner handles those retries in a tight inner loop; these
// cases pin it to the reference engine on every loop exit.

/// The storm cells with a cap of 20 x T_B (about 10^4 failures a trial
/// instead of the figures' ~10^6).
struct StormCase {
  systems::SystemConfig system;
  CheckpointPlan plan;
  std::string shape;
};

std::vector<StormCase> storm_cases() {
  std::vector<StormCase> cases;
  for (const double pfs : {20.0, 30.0, 40.0}) {
    const auto sys = systems::scaled_system_b(3.0, pfs, 1440.0);
    // Full hierarchy shaped like the Dauwe pick for these cells.
    cases.push_back({sys, CheckpointPlan::full_hierarchy(1.04, {1, 0, 22}),
                     "full"});
    // Top two levels only: every non-PFS failure restores from level 2.
    CheckpointPlan top_two;
    top_two.tau0 = 1.5;
    top_two.levels = {2, 3};
    top_two.counts = {12};
    cases.push_back({sys, top_two, "top-two"});
    // More triggers than CompiledSchedule::kMaxTriggers: callback mode.
    cases.push_back({sys, CheckpointPlan::full_hierarchy(0.005, {1, 0, 22}),
                     "tiny-tau0"});
  }
  return cases;
}

SimOptions storm_options(RestartPolicy policy) {
  SimOptions options;
  options.restart_policy = policy;
  options.max_time_factor = 20.0;
  return options;
}

/// Which exits of the retry-in-place loop a trace exercises, read off
/// consecutive restart events.
struct LoopExits {
  int success = 0;      ///< a retried restart that then completed
  int capped = 0;       ///< a retry storm truncated by the cap
  int escalation = 0;   ///< a failed restart recovered elsewhere
  int moody_top = 0;    ///< Moody's same-severity retry at the top level
};

void count_exits(const std::vector<TraceEvent>& events, RestartPolicy policy,
                 LoopExits& exits) {
  using Kind = TraceEvent::Kind;
  for (std::size_t i = 1; i < events.size(); ++i) {
    const TraceEvent& prev = events[i - 1];
    const TraceEvent& ev = events[i];
    if (prev.kind != Kind::kRestart || prev.completed ||
        prev.failure_severity < 0) {
      continue;
    }
    const bool same_level =
        ev.kind == Kind::kRestart && ev.system_level == prev.system_level;
    if (!same_level) {
      ++exits.escalation;
      continue;
    }
    if (ev.completed) ++exits.success;
    if (ev.truncated_by_cap) ++exits.capped;
    if (policy == RestartPolicy::kMoodyEscalate &&
        prev.failure_severity == prev.system_level) {
      ++exits.moody_top;
    }
  }
}

TEST(StormIdentity, RunTrialsMatchesReferenceSerialAndPooled) {
  util::ThreadPool pool(4);
  for (const StormCase& c : storm_cases()) {
    for (const auto policy :
         {RestartPolicy::kRetrySameLevel, RestartPolicy::kMoodyEscalate}) {
      SCOPED_TRACE(::testing::Message()
                   << c.system.name << " " << c.shape << " policy "
                   << static_cast<int>(policy));
      EXPECT_EQ(CompiledSchedule::from_plan(c.system, c.plan).compiled(),
                c.shape != "tiny-tau0");
      const SimOptions options = storm_options(policy);
      const TrialStats ref =
          reference::run_trials(c.system, c.plan, 8, 20180521, options);
      ASSERT_EQ(ref.capped_trials, 8u) << "not a storm cell";
      expect_same_stats(run_trials(c.system, c.plan, 8, 20180521, options),
                        ref);
      expect_same_stats(
          run_trials(c.system, c.plan, 8, 20180521, options, &pool), ref);
    }
  }
}

TEST(StormIdentity, TracedTrialsMatchReferenceEventForEvent) {
  LoopExits retry_exits;
  LoopExits moody_exits;
  for (const StormCase& c : storm_cases()) {
    for (const auto policy :
         {RestartPolicy::kRetrySameLevel, RestartPolicy::kMoodyEscalate}) {
      for (std::uint64_t k = 0; k < 2; ++k) {
        SCOPED_TRACE(::testing::Message()
                     << c.system.name << " " << c.shape << " policy "
                     << static_cast<int>(policy) << " trial " << k);
        const std::uint64_t trial_seed = util::derive_stream_seed(7, k);
        std::vector<TraceEvent> batch_events;
        std::vector<TraceEvent> ref_events;
        SimOptions batch_options = storm_options(policy);
        batch_options.trace = &batch_events;
        SimOptions ref_options = storm_options(policy);
        ref_options.trace = &ref_events;
        RandomFailureSource a(c.system, util::Rng(trial_seed));
        RandomFailureSource b(c.system, util::Rng(trial_seed));
        const TrialResult batch = simulate(c.system, c.plan, a, batch_options);
        const TrialResult ref =
            reference::simulate(c.system, c.plan, b, ref_options);
        expect_same_result(batch, ref);
        EXPECT_GT(batch.failures, 5000);
        ASSERT_EQ(batch_events.size(), ref_events.size());
        for (std::size_t i = 0; i < batch_events.size(); ++i) {
          const TraceEvent& x = batch_events[i];
          const TraceEvent& y = ref_events[i];
          ASSERT_TRUE(x.kind == y.kind && x.start == y.start &&
                      x.end == y.end && x.system_level == y.system_level &&
                      x.completed == y.completed &&
                      x.failure_severity == y.failure_severity &&
                      x.truncated_by_cap == y.truncated_by_cap &&
                      x.work == y.work)
              << "event " << i << " differs";
        }
        const auto report =
            obs::audit_trial_trace(c.system, batch, batch_events);
        EXPECT_TRUE(report.ok())
            << (report.errors.empty() ? "" : report.errors.front());
        count_exits(batch_events, policy,
                    policy == RestartPolicy::kRetrySameLevel ? retry_exits
                                                             : moody_exits);
      }
    }
  }
  // Every exit of the retry loop is exercised under both policies.
  for (const LoopExits* exits : {&retry_exits, &moody_exits}) {
    EXPECT_GT(exits->success, 0);
    EXPECT_GT(exits->capped, 0);
    EXPECT_GT(exits->escalation, 0);
  }
  EXPECT_GT(moody_exits.moody_top, 0);
}

// ---------------------------------------------------------------------------
// Deep hierarchies: the runner keeps one validity bit and one work slot per
// used level, bounded by systems::kMaxLevels.

/// An n-level system: severities geometrically rarer, costs growing with
/// level, MTBF short enough that every level fails and restores.
systems::SystemConfig deep_system(int n) {
  systems::SystemConfig sys;
  sys.name = "deep" + std::to_string(n);
  sys.mtbf = 20.0;
  sys.base_time = 1440.0;
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    const double p = std::pow(0.6, k);
    sys.severity_probability.push_back(p);
    total += p;
    sys.checkpoint_cost.push_back(0.1 * std::pow(1.4, k));
  }
  for (double& p : sys.severity_probability) p /= total;
  sys.restart_cost = sys.checkpoint_cost;
  return sys;
}

TEST(BatchIdentity, TwelveLevelSystemMatchesReference) {
  const auto sys = deep_system(12);
  ASSERT_NO_THROW(sys.validate());
  // Alternating counts write every level within 2^6 intervals.
  const auto plan = CheckpointPlan::full_hierarchy(
      3.0, {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1});
  util::ThreadPool pool(4);
  for (const auto policy :
       {RestartPolicy::kRetrySameLevel, RestartPolicy::kMoodyEscalate}) {
    SimOptions options;
    options.restart_policy = policy;
    const TrialStats ref = reference::run_trials(sys, plan, 64, 99, options);
    EXPECT_GT(ref.mean_failures, 50.0);
    expect_same_stats(run_trials(sys, plan, 64, 99, options), ref);
    expect_same_stats(run_trials(sys, plan, 64, 99, options, &pool), ref);
  }
}

TEST(CompiledSchedule, RejectsLevelsBeyondMaxLevelsByName) {
  const auto sys = deep_system(systems::kMaxLevels + 1);
  std::vector<int> counts(static_cast<std::size_t>(systems::kMaxLevels), 1);
  const auto plan = CheckpointPlan::full_hierarchy(3.0, counts);
  try {
    CompiledSchedule::from_plan(sys, plan);
    FAIL() << "a " << systems::kMaxLevels + 1 << "-level subset compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxLevels"), std::string::npos)
        << e.what();
  }
  // The deepest accepted hierarchy compiles.
  const auto max_sys = deep_system(systems::kMaxLevels);
  counts.pop_back();
  EXPECT_NO_THROW(CompiledSchedule::from_plan(
      max_sys, CheckpointPlan::full_hierarchy(3.0, counts)));
}

// ---------------------------------------------------------------------------
// Failure-source guards

TEST(ScriptedFailureSource, RejectsNonIncreasingScripts) {
  EXPECT_THROW(ScriptedFailureSource({{5.0, 0}, {5.0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(ScriptedFailureSource({{5.0, 0}, {4.0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(ScriptedFailureSource({{0.0, 0}}), std::invalid_argument);
  EXPECT_THROW(
      ScriptedFailureSource({{std::numeric_limits<double>::infinity(), 0}}),
      std::invalid_argument);
  try {
    ScriptedFailureSource({{2.0, 0}, {1.0, 0}});
    FAIL() << "non-increasing script must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("script[1]"), std::string::npos)
        << e.what();
  }
}

TEST(SeverityCdf, TopBucketIsPinnedToExactlyOne) {
  auto sys = toy_system();
  // A mix whose running sum falls a few ulps short of 1.
  sys.severity_probability = {0.1, 0.2, 0.3, 0.15, 0.25};
  const std::vector<double> cdf = severity_cdf(sys);
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_EQ(cdf.back(), 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(SeverityCdf, RejectsBrokenMixesWithNamedErrors) {
  auto sys = toy_system();
  sys.severity_probability = {0.5, 0.4};  // sums to 0.9
  try {
    severity_cdf(sys);
    FAIL() << "non-normalized mix must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("severity_probability"),
              std::string::npos)
        << e.what();
  }
  sys.severity_probability = {1.2, -0.2};
  try {
    severity_cdf(sys);
    FAIL() << "negative entry must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("severity_probability[1]"),
              std::string::npos)
        << e.what();
  }
  sys.severity_probability = {};
  EXPECT_THROW(severity_cdf(sys), std::invalid_argument);
}

}  // namespace
}  // namespace mlck::sim
