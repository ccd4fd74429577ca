// google-benchmark microbenchmarks for the performance-critical paths:
// the probability kernels, one model evaluation (the optimizer's inner
// loop), a full optimizer run, and a simulated trial. These are not paper
// artifacts; they guard the cost model documented in DESIGN.md (optimizer
// sweeps evaluate ~10^6 plans per system).
#include <benchmark/benchmark.h>

#include "core/adaptive.h"
#include "core/dauwe_kernel.h"
#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "core/serialize.h"
#include "engine/evaluation.h"
#include "math/distribution.h"
#include "math/exponential.h"
#include "models/interval_baseline.h"
#include "models/moody.h"
#include "sim/simulator.h"
#include "systems/test_systems.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using mlck::core::CheckpointPlan;
using mlck::core::DauweModel;

void BM_TruncatedMean(benchmark::State& state) {
  double t = 3.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlck::math::truncated_mean(t, 0.08));
    t += 1e-9;  // defeat constant folding
  }
}
BENCHMARK(BM_TruncatedMean);

void BM_RngExponential(benchmark::State& state) {
  mlck::util::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(0.1));
  }
}
BENCHMARK(BM_RngExponential);

void BM_DauweEvalTwoLevel(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D5");
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.expected_time(sys, plan));
  }
}
BENCHMARK(BM_DauweEvalTwoLevel);

void BM_DauweEvalFourLevel(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("B");
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {3, 2, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.expected_time(sys, plan));
  }
}
BENCHMARK(BM_DauweEvalFourLevel);

// Same evaluation as BM_DauweEvalFourLevel but through a prebuilt
// DauweKernel: the tau-independent per-level terms are computed once
// instead of per call. The ratio of these two cases is the per-eval win
// the engine's context cache banks across an optimizer sweep.
void BM_DauweKernelEvalFourLevel(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("B");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {3, 2, 2});
  const mlck::core::DauweKernel kernel(sys, plan.levels, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.expected_time(plan.tau0, plan.counts));
  }
}
BENCHMARK(BM_DauweKernelEvalFourLevel);

void BM_MoodyEvalFourLevel(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("B");
  const mlck::models::MoodyModel model;
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {3, 2, 2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.expected_time(sys, plan));
  }
}
BENCHMARK(BM_MoodyEvalFourLevel);

// The path the reproduction actually pays for: Moody et al.'s full
// serial interval search on system B (one per-subset kernel, one cost
// function copy per tau0 slice, the bootstrap prefix memo). Compare with
// BM_MoodyEvalFourLevel times the search's evaluation count for the
// per-search win of building the kernel once.
void BM_MoodySelectB(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("B");
  const mlck::models::MoodyTechnique technique;
  for (auto _ : state) {
    benchmark::DoNotOptimize(technique.select_plan(sys, nullptr));
  }
}
BENCHMARK(BM_MoodySelectB)->Unit(benchmark::kMillisecond);

void BM_OptimizeTwoLevelSystem(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D5");
  const DauweModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlck::core::optimize_intervals(model, sys));
  }
}
BENCHMARK(BM_OptimizeTwoLevelSystem)->Unit(benchmark::kMillisecond);

// The same search through the engine's cached contexts (bit-identical
// result); compare against BM_OptimizeTwoLevelSystem for the sweep-level
// speedup.
void BM_OptimizeTwoLevelSystemCached(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D5");
  const mlck::engine::EvaluationEngine engine(sys);
  engine.optimize();  // warm the context cache outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.optimize());
  }
}
BENCHMARK(BM_OptimizeTwoLevelSystemCached)->Unit(benchmark::kMillisecond);

void BM_SimulateTrialD5(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D5");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    mlck::sim::RandomFailureSource src(sys, mlck::util::Rng(++seed));
    benchmark::DoNotOptimize(mlck::sim::simulate(sys, plan, src));
  }
}
BENCHMARK(BM_SimulateTrialD5)->Unit(benchmark::kMicrosecond);

void BM_SimulateTrialHarshD9(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D9");
  const auto plan = CheckpointPlan::full_hierarchy(1.0, {6});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    mlck::sim::RandomFailureSource src(sys, mlck::util::Rng(++seed));
    benchmark::DoNotOptimize(mlck::sim::simulate(sys, plan, src));
  }
}
BENCHMARK(BM_SimulateTrialHarshD9)->Unit(benchmark::kMicrosecond);

void BM_SimulateIntervalScheduleD5(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D5");
  const auto schedule = mlck::models::relaxed_interval_schedule(sys);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    mlck::sim::RandomFailureSource src(sys, mlck::util::Rng(++seed));
    benchmark::DoNotOptimize(mlck::sim::simulate(sys, schedule, src));
  }
}
BENCHMARK(BM_SimulateIntervalScheduleD5)->Unit(benchmark::kMicrosecond);

void BM_SimulateAdaptiveD5(benchmark::State& state) {
  const auto sys = mlck::systems::table1_system("D5");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
  const auto adaptive = mlck::core::make_adaptive(sys, plan);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    mlck::sim::RandomFailureSource src(sys, mlck::util::Rng(++seed));
    benchmark::DoNotOptimize(mlck::sim::simulate(sys, adaptive, src));
  }
}
BENCHMARK(BM_SimulateAdaptiveD5)->Unit(benchmark::kMicrosecond);

void BM_WeibullTruncatedMeanNumeric(benchmark::State& state) {
  const auto weibull = mlck::math::Weibull::with_mean(10.0, 0.7);
  double t = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(weibull.truncated_mean(t));
    t += 1e-9;
  }
}
BENCHMARK(BM_WeibullTruncatedMeanNumeric)->Unit(benchmark::kMicrosecond);

void BM_JsonParseSystemDocument(benchmark::State& state) {
  const std::string doc =
      mlck::core::to_json(mlck::systems::table1_system("B")).dump(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlck::util::Json::parse(doc));
  }
}
BENCHMARK(BM_JsonParseSystemDocument);

}  // namespace

BENCHMARK_MAIN();
