// Simulation engine throughput, batch tier vs the frozen reference tier:
//
//   reference — the pre-rewrite engine preserved verbatim in
//               sim::reference: per-segment std::function schedule
//               dispatch, a virtual FailureSource::next() per event,
//               per-trial severity-CDF and checkpoint-slot allocations.
//   batch     — this PR's engine behind the same run_trials API:
//               CompiledSchedule trigger arrays with an O(1) cursor,
//               devirtualized failure draws, chunk-hoisted source setup,
//               reused capture arenas.
//   tabulated — the batch engine with the law's inverse-CDF sampling
//               table (FailureLaw::sampling_distribution): one uniform
//               per draw instead of the closed-form transcendentals.
//
// The contract mirrors bench_optimizer's: the batch tier must reproduce
// the reference tier's run_trials output BYTE FOR BYTE on equal seeds —
// every Summary/Quantiles/SimBreakdown field compared with == — for the
// exponential lane and the closed-form renewal lanes, on all seven
// Table-I systems. The tabulated lane draws different (same-law) samples
// by design, so it is timed but excluded from the bit gate.
//
// Two storm lanes add the Figure 4/6 capped cells B(mtbf=3,pfs=20) and
// B(mtbf=3,pfs=40) at the full 2000 x T_B cap: about 10^6 failures a
// trial, almost all failed restarts retried in place (pfs=20) or
// compute/checkpoint churn (pfs=40). They run a fixed 8 trials (2 under
// --smoke) serially, are bit-gated like the exponential lane, and report
// single-thread ns per simulated failure. They stay out of the
// max_*_speedup headline figures.
//
// Writes BENCH_sim.json (deterministic key order via util::Json) so the
// trials/sec and the bit_identical flag are tracked artifacts. --smoke
// shrinks trials and the plan-selection grid for CI; --metrics=file.json
// writes the engine/pool counter sidecar (docs/OBSERVABILITY.md).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/serialize.h"
#include "engine/evaluation.h"
#include "engine/scenario.h"
#include "math/failure_law.h"
#include "obs/registry.h"
#include "sim/reference_simulator.h"
#include "sim/trial_runner.h"
#include "systems/scaling.h"
#include "systems/test_systems.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using mlck::bench::time_best;
using mlck::util::Json;

bool same_summary(const mlck::stats::Summary& a,
                  const mlck::stats::Summary& b) {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.max == b.max;
}

bool same_breakdown(const mlck::sim::SimBreakdown& a,
                    const mlck::sim::SimBreakdown& b) {
  return a.useful == b.useful && a.checkpoint_ok == b.checkpoint_ok &&
         a.checkpoint_failed == b.checkpoint_failed &&
         a.restart_ok == b.restart_ok &&
         a.restart_failed == b.restart_failed &&
         a.rework_compute == b.rework_compute &&
         a.rework_checkpoint == b.rework_checkpoint &&
         a.rework_restart == b.rework_restart;
}

/// The bit-identity contract: every aggregate field equal with ==, no
/// tolerance. Quantiles come from the same sorted sample, Summary from
/// the same serial Welford order, so any engine divergence — one draw,
/// one trigger, one rounding difference — trips this.
bool same_stats(const mlck::sim::TrialStats& a,
                const mlck::sim::TrialStats& b) {
  return same_summary(a.efficiency, b.efficiency) &&
         same_summary(a.total_time, b.total_time) &&
         a.efficiency_quantiles.p05 == b.efficiency_quantiles.p05 &&
         a.efficiency_quantiles.p25 == b.efficiency_quantiles.p25 &&
         a.efficiency_quantiles.median == b.efficiency_quantiles.median &&
         a.efficiency_quantiles.p75 == b.efficiency_quantiles.p75 &&
         a.efficiency_quantiles.p95 == b.efficiency_quantiles.p95 &&
         same_breakdown(a.time_shares, b.time_shares) &&
         a.mean_failures == b.mean_failures && a.trials == b.trials &&
         a.capped_trials == b.capped_trials;
}

struct Lane {
  std::string law;          ///< "exponential" | "weibull(0.7)" | ...
  double reference_seconds = 0.0;
  double batch_seconds = 0.0;
  double tabulated_seconds = 0.0;  ///< 0 when the lane has no table
  bool bit_identical = false;      ///< batch vs reference, == on all fields
  double speedup() const { return reference_seconds / batch_seconds; }
  double tabulated_speedup() const {
    return tabulated_seconds > 0.0 ? reference_seconds / tabulated_seconds
                                   : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const mlck::util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const int repeats = cli.get_int("repeats", smoke ? 1 : 5);
  const int trials = cli.get_int("trials", smoke ? 200 : 1000);
  const std::string out = cli.get_string("out", "BENCH_sim.json");
  const std::string metrics_path = cli.get_string("metrics", "");
  const int threads = cli.get_int("threads", 0);
  mlck::bench::reject_unknown_flags(cli);
  mlck::util::ThreadPool pool(
      static_cast<std::size_t>(std::max(threads, 0)));
  const std::uint64_t seed = 20180521;

  std::unique_ptr<mlck::obs::MetricsRegistry> registry;
  std::unique_ptr<mlck::engine::ScenarioMetrics> wiring;
  mlck::sim::SimOptions sim_options;
  if (!metrics_path.empty()) {
    registry = std::make_unique<mlck::obs::MetricsRegistry>();
    wiring = std::make_unique<mlck::engine::ScenarioMetrics>(*registry);
    sim_options.metrics = &wiring->sim;
    pool.attach_metrics(mlck::engine::pool_metrics(*registry));
  }

  // Plan selection is fixture setup, not the thing being measured: a
  // coarse grid picks one representative Dauwe plan per system.
  mlck::core::OptimizerOptions plan_opts;
  plan_opts.coarse_tau_points = 24;

  const auto weibull = mlck::math::FailureLaw::weibull(0.7);
  const auto lognormal = mlck::math::FailureLaw::lognormal(1.0);

  mlck::util::Table table({"system", "law", "ref s", "batch s", "tab s",
                           "batch x", "tab x", "identical"});
  Json::Array systems_json;
  double best_exponential = 0.0;
  double best_nonexponential = 0.0;
  bool all_identical = true;

  for (const char* name : {"B", "M", "D1", "D3", "D5", "D7", "D9"}) {
    mlck::bench::progress("bench sim: " + std::string(name));
    const auto sys = mlck::systems::table1_system(name);
    mlck::engine::EvaluationEngine engine(sys);
    const auto plan = engine.optimize(plan_opts, &pool).plan;
    const double mtbf = sys.mtbf;

    const auto n = static_cast<std::size_t>(trials);
    std::vector<Lane> lanes;

    // Exponential lane: the simulator's native Poisson source, the path
    // every validation run and scenario sweep exercises by default.
    {
      Lane lane;
      lane.law = "exponential";
      const auto ref =
          mlck::sim::reference::run_trials(sys, plan, n, seed, sim_options,
                                           &pool);
      const auto batch =
          mlck::sim::run_trials(sys, plan, n, seed, sim_options, &pool);
      lane.bit_identical = same_stats(ref, batch);
      lane.reference_seconds = time_best(repeats, [&] {
        mlck::sim::reference::run_trials(sys, plan, n, seed, sim_options,
                                         &pool);
      });
      lane.batch_seconds = time_best(repeats, [&] {
        mlck::sim::run_trials(sys, plan, n, seed, sim_options, &pool);
      });
      best_exponential = std::max(best_exponential, lane.speedup());
      lanes.push_back(lane);
    }

    // Renewal lanes: closed-form samplers (bit-gated) plus the
    // inverse-CDF table lane (timed only — different draws, same law).
    for (const auto* law : {weibull.get(), lognormal.get()}) {
      Lane lane;
      lane.law = law->describe();
      const auto closed = law->distribution(mtbf);
      const auto table_dist = law->sampling_distribution(mtbf);
      const auto ref = mlck::sim::reference::run_trials_with_distribution(
          sys, plan, *closed, n, seed, sim_options, &pool);
      const auto batch = mlck::sim::run_trials_with_distribution(
          sys, plan, *closed, n, seed, sim_options, &pool);
      lane.bit_identical = same_stats(ref, batch);
      lane.reference_seconds = time_best(repeats, [&] {
        mlck::sim::reference::run_trials_with_distribution(
            sys, plan, *closed, n, seed, sim_options, &pool);
      });
      lane.batch_seconds = time_best(repeats, [&] {
        mlck::sim::run_trials_with_distribution(sys, plan, *closed, n, seed,
                                                sim_options, &pool);
      });
      lane.tabulated_seconds = time_best(repeats, [&] {
        mlck::sim::run_trials_with_distribution(
            sys, plan, *table_dist, n, seed, sim_options, &pool);
      });
      best_nonexponential =
          std::max({best_nonexponential, lane.speedup(),
                    lane.tabulated_speedup()});
      lanes.push_back(lane);
    }

    for (const Lane& lane : lanes) {
      if (!lane.bit_identical) {
        all_identical = false;
        std::cerr << "FATAL: batch engine diverges from reference on "
                  << name << " under " << lane.law << "\n";
      }
      table.add_row(
          {name, lane.law, mlck::util::Table::num(lane.reference_seconds, 4),
           mlck::util::Table::num(lane.batch_seconds, 4),
           lane.tabulated_seconds > 0.0
               ? mlck::util::Table::num(lane.tabulated_seconds, 4)
               : "-",
           mlck::util::Table::num(lane.speedup(), 2) + "x",
           lane.tabulated_seconds > 0.0
               ? mlck::util::Table::num(lane.tabulated_speedup(), 2) + "x"
               : "-",
           lane.bit_identical ? "yes" : "NO"});

      Json::Object row;
      row["system"] = name;
      row["law"] = lane.law;
      row["trials"] = static_cast<double>(n);
      row["reference_seconds"] = lane.reference_seconds;
      row["batch_seconds"] = lane.batch_seconds;
      row["reference_trials_per_sec"] =
          static_cast<double>(n) / lane.reference_seconds;
      row["batch_trials_per_sec"] =
          static_cast<double>(n) / lane.batch_seconds;
      row["speedup"] = lane.speedup();
      if (lane.tabulated_seconds > 0.0) {
        row["tabulated_seconds"] = lane.tabulated_seconds;
        row["tabulated_trials_per_sec"] =
            static_cast<double>(n) / lane.tabulated_seconds;
        row["tabulated_speedup"] = lane.tabulated_speedup();
      }
      row["bit_identical"] = lane.bit_identical;
      systems_json.emplace_back(std::move(row));
    }
  }

  // Storm lanes: serial, so ns per failure is a per-core cost.
  const std::size_t storm_trials = smoke ? 2 : 8;
  std::string storm_report;
  for (const double pfs : {20.0, 40.0}) {
    const auto sys = mlck::systems::scaled_system_b(3.0, pfs, 1440.0);
    mlck::bench::progress("bench sim: " + sys.name);
    mlck::engine::EvaluationEngine engine(sys);
    const auto plan = engine.optimize(plan_opts, &pool).plan;
    Lane lane;
    lane.law = "exponential";
    const auto ref = mlck::sim::reference::run_trials(
        sys, plan, storm_trials, seed, sim_options);
    const auto batch =
        mlck::sim::run_trials(sys, plan, storm_trials, seed, sim_options);
    lane.bit_identical = same_stats(ref, batch);
    const double failures =
        batch.mean_failures * static_cast<double>(storm_trials);
    lane.reference_seconds = time_best(repeats, [&] {
      mlck::sim::reference::run_trials(sys, plan, storm_trials, seed,
                                       sim_options);
    });
    lane.batch_seconds = time_best(repeats, [&] {
      mlck::sim::run_trials(sys, plan, storm_trials, seed, sim_options);
    });
    if (!lane.bit_identical) {
      all_identical = false;
      std::cerr << "FATAL: batch engine diverges from reference on "
                << sys.name << " (storm lane)\n";
    }
    const double ref_ns = lane.reference_seconds * 1e9 / failures;
    const double batch_ns = lane.batch_seconds * 1e9 / failures;
    storm_report += sys.name + ": " + mlck::util::Table::num(failures, 0) +
                    " failures, ns per failure reference " +
                    mlck::util::Table::num(ref_ns, 1) + ", batch " +
                    mlck::util::Table::num(batch_ns, 1) + "\n";
    table.add_row({sys.name, lane.law + " storm",
                   mlck::util::Table::num(lane.reference_seconds, 4),
                   mlck::util::Table::num(lane.batch_seconds, 4), "-",
                   mlck::util::Table::num(lane.speedup(), 2) + "x", "-",
                   lane.bit_identical ? "yes" : "NO"});
    Json::Object row;
    row["system"] = sys.name;
    row["law"] = lane.law;
    row["storm"] = true;
    row["trials"] = static_cast<double>(storm_trials);
    row["failures"] = failures;
    row["reference_seconds"] = lane.reference_seconds;
    row["batch_seconds"] = lane.batch_seconds;
    row["reference_ns_per_failure"] = ref_ns;
    row["batch_ns_per_failure"] = batch_ns;
    row["speedup"] = lane.speedup();
    row["bit_identical"] = lane.bit_identical;
    systems_json.emplace_back(std::move(row));
  }

  Json::Object doc;
  doc["benchmark"] = "simulation_engine_batch_vs_reference";
  doc["trials"] = trials;
  doc["repeats"] = repeats;
  doc["threads"] = threads;
  doc["smoke"] = smoke;
  doc["systems"] = std::move(systems_json);
  doc["max_exponential_speedup"] = best_exponential;
  doc["max_nonexponential_speedup"] = best_nonexponential;
  doc["meets_2x_exponential"] = best_exponential >= 2.0;
  doc["meets_5x_nonexponential"] = best_nonexponential >= 5.0;
  doc["bit_identical"] = all_identical;
  mlck::core::write_file(out, Json(std::move(doc)).dump(2) + "\n");

  if (registry != nullptr && !metrics_path.empty()) {
    std::ofstream sidecar(metrics_path);
    sidecar << registry->to_json().dump(2) << "\n";
    std::cerr << "[mlck] wrote metrics sidecar " << metrics_path << "\n";
  }

  std::cout << "Simulation benchmark: batch engine vs frozen reference "
               "engine (identical run_trials output, == on every field)\n";
  table.print(std::cout);
  std::cout << "\nStorm lanes (serial, full cap):\n" << storm_report;
  std::cout << "\nwrote " << out << "\n";
  if (!all_identical) return 1;
  return best_exponential > 1.0 && best_nonexponential > 1.0 ? 0 : 3;
}
