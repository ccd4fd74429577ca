// Observability overhead budget: the cost of *attached* instrumentation
// (metrics registry wired into the optimizer, engine, simulator, and
// pool, plus a live TelemetrySampler snapshotting the registry) versus
// the same workload fully detached (every metric pointer null — one
// predictable branch per site).
//
// Two lanes, mirroring the hot paths the telemetry stack instruments:
//
//   optimizer — EvaluationEngine::optimize over the full staged sweep
//               (fresh engine per run, so cache state is equal in both
//               arms) on a parallel pool;
//   simulator — sim::run_trials Monte-Carlo batches on the same pool.
//
// The contract is twofold and gated:
//   * results must be BIT-IDENTICAL with and without instrumentation
//     (the observe-only contract, == on every aggregate field);
//   * attached wall time may exceed detached by at most --bound
//     (default 2%), measured best-of-repeats with the two arms
//     interleaved so clock drift and turbo state hit both equally.
//
// A third section checks the sampler is *live*: a short-period sampler
// attached to a running workload must complete >= 3 ticks and every
// counter series it captures must be monotone non-decreasing.
//
// Writes BENCH_obs.json (deterministic key order). Exit codes: 1 bit
// divergence, 3 overhead bound exceeded, 4 sampler not live. --smoke
// shrinks the workload for CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/optimizer.h"
#include "core/serialize.h"
#include "engine/evaluation.h"
#include "engine/scenario.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using mlck::bench::seconds_since;
using mlck::util::Json;

bool same_plan(const mlck::core::CheckpointPlan& a,
               const mlck::core::CheckpointPlan& b) {
  return a.tau0 == b.tau0 && a.levels == b.levels && a.counts == b.counts;
}

bool same_optimization(const mlck::core::OptimizationResult& a,
                       const mlck::core::OptimizationResult& b) {
  return same_plan(a.plan, b.plan) && a.expected_time == b.expected_time &&
         a.efficiency == b.efficiency;
}

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

bool same_stats(const mlck::sim::TrialStats& a,
                const mlck::sim::TrialStats& b) {
  return same_summary(a.efficiency, b.efficiency) &&
         same_summary(a.total_time, b.total_time) &&
         same_breakdown(a.time_shares, b.time_shares) &&
         a.mean_failures == b.mean_failures && a.trials == b.trials &&
         a.capped_trials == b.capped_trials;
}

/// One measured lane: per-repeat paired timings of the detached and
/// attached arms, reduced to the *median* attached/detached ratio.
/// Within a repeat each arm runs `inner` times interleaved and keeps
/// its best (bursty noise — CPU steal, scheduler stalls — rarely spares
/// all inner runs of one arm); the two bests come from the same short
/// window, so slow drift in clock rate or machine load cancels in the
/// ratio; the median across repeats rejects windows where noise won
/// anyway. Plain min-of-each-arm across all runs proved flaky at the
/// +-3% level on shared machines because the two minima can come from
/// different load regimes; a single paired run per repeat flaked on
/// bursts. The per-repeat ratios are recorded in BENCH_obs.json for
/// diagnosing a failed gate.
struct Lane {
  std::string lane;
  double detached_seconds = 0.0;  ///< best observed, for reporting
  double attached_seconds = 0.0;  ///< best observed, for reporting
  std::vector<double> ratios;     ///< per-repeat attached/detached
  bool bit_identical = false;
  double overhead() const {
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    if (n == 0) return 0.0;
    const double median = n % 2 == 1
                              ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    return median - 1.0;
  }
};

/// Times the steady-state cost of attachment: @p begin / @p end flip the
/// instrumentation on and off (pool wiring, sampler thread) *outside*
/// the timed windows — the budget covers instrumented hot paths, not the
/// one-time lifecycle of attaching.
template <typename DetachedFn, typename AttachedFn, typename BeginFn,
          typename EndFn>
void time_interleaved(int repeats, int inner, Lane& lane,
                      const DetachedFn& detached, const AttachedFn& attached,
                      const BeginFn& begin, const EndFn& end) {
  lane.detached_seconds = std::numeric_limits<double>::infinity();
  lane.attached_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    double best_detached = std::numeric_limits<double>::infinity();
    double best_attached = std::numeric_limits<double>::infinity();
    const auto run_detached = [&] {
      const auto start = std::chrono::steady_clock::now();
      detached();
      best_detached = std::min(best_detached, seconds_since(start));
    };
    const auto run_attached = [&] {
      begin();
      const auto start = std::chrono::steady_clock::now();
      attached();
      best_attached = std::min(best_attached, seconds_since(start));
      end();
    };
    for (int k = 0; k < inner; ++k) {
      // Alternate the order so any second-runner advantage (warm
      // caches, ramped clocks) lands on both arms equally often.
      if ((r + k) % 2 == 0) {
        run_detached();
        run_attached();
      } else {
        run_attached();
        run_detached();
      }
    }
    lane.detached_seconds = std::min(lane.detached_seconds, best_detached);
    lane.attached_seconds = std::min(lane.attached_seconds, best_attached);
    lane.ratios.push_back(best_attached / best_detached);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const mlck::util::Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const int repeats = cli.get_int("repeats", smoke ? 5 : 7);
  const int inner = cli.get_int("inner", 3);
  // Lanes must be long enough that a 2% delta clears timer and scheduler
  // noise (sub-50ms measurements flaked at the +-3% level); trials sizes
  // the simulator batch, iters repeats the optimizer sweep per
  // measurement.
  const int trials = cli.get_int("trials", smoke ? 300000 : 1000000);
  const int iters = cli.get_int("iters", smoke ? 150 : 300);
  const double bound = cli.get_double("bound", 0.02);
  // Diagnostic switches for a failed gate: drop one attachment at a time
  // to see which one carries the overhead.
  const bool with_sampler = cli.get_bool("with-sampler", true);
  const bool with_pool_metrics = cli.get_bool("with-pool-metrics", true);
  const std::string out = cli.get_string("out", "BENCH_obs.json");
  const int threads = cli.get_int("threads", 0);
  mlck::bench::reject_unknown_flags(cli);

  mlck::util::ThreadPool pool(
      threads > 0 ? static_cast<std::size_t>(threads)
                  : std::max(2u, std::thread::hardware_concurrency()));
  const std::uint64_t seed = 20180521;
  const auto sys = mlck::systems::table1_system("M");

  // The attached arm's full wiring: scenario metric names + pool metrics
  // + a live sampler at the default cadence. Created once; the pool's
  // metrics are attached/detached around each arm so both run on the
  // *same* pool.
  mlck::obs::MetricsRegistry registry;
  mlck::engine::ScenarioMetrics wiring(registry);
  const mlck::util::ThreadPoolMetrics pool_wiring =
      mlck::engine::pool_metrics(registry);
  mlck::obs::TelemetrySampler sampler(registry);

  mlck::core::OptimizerOptions optimizer_options;
  if (smoke) optimizer_options.coarse_tau_points = 24;

  Json::Array lanes_json;
  mlck::util::Table table(
      {"lane", "detached s", "attached s", "overhead", "identical"});
  bool all_identical = true;
  double max_overhead = 0.0;

  // ---- optimizer lane --------------------------------------------------
  Lane optimizer_lane;
  optimizer_lane.lane = "optimizer";
  {
    mlck::bench::progress("bench obs: optimizer lane");
    // Fresh engine per run: both arms pay identical context-build costs
    // (the cache never carries over between measurements).
    const auto one_detached = [&] {
      mlck::engine::EvaluationEngine eng(sys);
      return eng.optimize(optimizer_options, &pool);
    };
    const auto one_attached = [&] {
      mlck::engine::EvaluationEngine eng(sys);
      eng.attach_metrics(wiring.engine);
      mlck::core::OptimizerOptions opts = optimizer_options;
      opts.metrics = &wiring.optimizer;
      return eng.optimize(opts, &pool);
    };
    optimizer_lane.bit_identical =
        same_optimization(one_detached(), one_attached());
    time_interleaved(
        repeats, inner, optimizer_lane,
        [&] {
          for (int i = 0; i < iters; ++i) one_detached();
        },
        [&] {
          for (int i = 0; i < iters; ++i) one_attached();
        },
        [&] {
          if (with_pool_metrics) pool.attach_metrics(pool_wiring);
          if (with_sampler) sampler.start();
        },
        [&] {
          if (with_sampler) sampler.stop();
          if (with_pool_metrics) pool.attach_metrics({});
        });
  }

  // ---- simulator lane --------------------------------------------------
  Lane simulator_lane;
  simulator_lane.lane = "simulator";
  {
    mlck::bench::progress("bench obs: simulator lane");
    mlck::engine::EvaluationEngine eng(sys);
    const auto plan = eng.optimize(optimizer_options, &pool).plan;
    const auto n = static_cast<std::size_t>(trials);
    mlck::sim::SimOptions detached_options;
    mlck::sim::SimOptions attached_options;
    attached_options.metrics = &wiring.sim;
    const auto run_detached = [&] {
      return mlck::sim::run_trials(sys, plan, n, seed, detached_options,
                                   &pool);
    };
    const auto run_attached = [&] {
      return mlck::sim::run_trials(sys, plan, n, seed, attached_options,
                                   &pool);
    };
    simulator_lane.bit_identical = same_stats(run_detached(), run_attached());
    time_interleaved(
        repeats, inner, simulator_lane, run_detached, run_attached,
        [&] {
          if (with_pool_metrics) pool.attach_metrics(pool_wiring);
          if (with_sampler) sampler.start();
        },
        [&] {
          if (with_sampler) sampler.stop();
          if (with_pool_metrics) pool.attach_metrics({});
        });
  }

  // ---- sampler liveness ------------------------------------------------
  // A fast sampler over a real workload must actually tick, and the
  // series it captures must be monotone (counters never run backwards).
  std::uint64_t live_ticks = 0;
  bool monotone = true;
  bool sampler_live = false;
  {
    mlck::bench::progress("bench obs: sampler liveness");
    mlck::obs::MetricsRegistry live_registry;
    mlck::engine::ScenarioMetrics live_wiring(live_registry);
    mlck::obs::TelemetrySampler::Options fast;
    fast.period = std::chrono::milliseconds(2);
    mlck::obs::TelemetrySampler live_sampler(live_registry, fast);
    mlck::sim::SimOptions live_options;
    live_options.metrics = &live_wiring.sim;
    live_sampler.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    std::uint64_t batch_seed = seed;
    mlck::engine::EvaluationEngine eng(sys);
    const auto plan = eng.optimize(optimizer_options, &pool).plan;
    do {
      mlck::sim::run_trials(sys, plan, static_cast<std::size_t>(trials),
                            batch_seed++, live_options, &pool);
    } while (std::chrono::steady_clock::now() < deadline);
    live_sampler.stop();
    live_ticks = live_sampler.ticks();
    for (const auto& [name, series] : live_sampler.series()) {
      if (series.kind != mlck::obs::MetricSeries::Kind::kCounter) continue;
      for (std::size_t i = 1; i < series.points.size(); ++i) {
        if (series.points[i].value < series.points[i - 1].value) {
          monotone = false;
          std::cerr << "FATAL: counter series " << name
                    << " ran backwards at point " << i << "\n";
        }
      }
    }
    sampler_live = live_ticks >= 3 && monotone;
  }

  for (const Lane* lane : {&optimizer_lane, &simulator_lane}) {
    if (!lane->bit_identical) {
      all_identical = false;
      std::cerr << "FATAL: attached instrumentation changed " << lane->lane
                << " results\n";
    }
    max_overhead = std::max(max_overhead, lane->overhead());
    table.add_row({lane->lane,
                   mlck::util::Table::num(lane->detached_seconds, 4),
                   mlck::util::Table::num(lane->attached_seconds, 4),
                   mlck::util::Table::pct(lane->overhead(), 2),
                   lane->bit_identical ? "yes" : "NO"});
    Json::Object row;
    row["lane"] = lane->lane;
    row["detached_seconds"] = lane->detached_seconds;
    row["attached_seconds"] = lane->attached_seconds;
    Json::Array ratios;
    for (double ratio : lane->ratios) ratios.emplace_back(ratio);
    row["ratios"] = std::move(ratios);
    row["overhead"] = lane->overhead();
    row["within_bound"] = lane->overhead() <= bound;
    row["bit_identical"] = lane->bit_identical;
    lanes_json.emplace_back(std::move(row));
  }
  const bool within_bound = max_overhead <= bound;

  Json::Object sampler_json;
  sampler_json["ticks"] = static_cast<double>(live_ticks);
  sampler_json["monotone"] = monotone;
  sampler_json["live"] = sampler_live;

  Json::Object doc;
  doc["benchmark"] = "observability_overhead";
  doc["trials"] = trials;
  doc["iters"] = iters;
  doc["repeats"] = repeats;
  doc["inner"] = inner;
  doc["threads"] = threads;
  doc["smoke"] = smoke;
  doc["bound"] = bound;
  doc["lanes"] = std::move(lanes_json);
  doc["max_overhead"] = max_overhead;
  doc["within_bound"] = within_bound;
  doc["bit_identical"] = all_identical;
  doc["sampler"] = std::move(sampler_json);
  mlck::core::write_file(out, Json(std::move(doc)).dump(2) + "\n");

  std::cout << "Observability overhead: attached (registry + sampler) vs "
               "detached (null metric pointers), bound "
            << mlck::util::Table::pct(bound, 0) << "\n";
  table.print(std::cout);
  std::cout << "sampler liveness: " << live_ticks << " ticks, counters "
            << (monotone ? "monotone" : "NOT MONOTONE") << "\n";
  std::cout << "\nwrote " << out << "\n";
  if (!all_identical) return 1;
  if (!within_bound) {
    std::cerr << "FATAL: attached overhead "
              << mlck::util::Table::pct(max_overhead, 2) << " exceeds bound "
              << mlck::util::Table::pct(bound, 2) << "\n";
    return 3;
  }
  if (!sampler_live) {
    std::cerr << "FATAL: sampler not live (ticks=" << live_ticks
              << ", monotone=" << (monotone ? "yes" : "no") << ")\n";
    return 4;
  }
  return 0;
}
