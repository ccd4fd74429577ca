#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/model.h"
#include "core/plan.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace mlck::core {

class DauweKernel;

/// Optional search observability. Null members are skipped; counts are
/// accumulated per subset in locals and flushed once per sweep, so the
/// hot enumeration loop is untouched and results are unaffected.
struct OptimizerMetrics {
  obs::Counter* plans_swept = nullptr;    ///< coarse-pass cost evaluations
  /// Leaf plans eliminated by the feasibility bound tau0 * prod(N+1) <= T_B
  /// before being evaluated: a cut at enumeration depth d skips
  /// ladder^(remaining dims) candidate plans per skipped rung, so
  /// plans_swept + plans_pruned + plans_pruned_bound always equals the full
  /// coarse lattice (tau points x ladder^dims, summed over level subsets).
  obs::Counter* plans_pruned = nullptr;
  /// Leaf plans eliminated because an admissible lower bound on their
  /// subtree exceeded the best expected time already found for the same
  /// level subset (the staged kernel sweep only; the other term of the
  /// lattice accounting identity above).
  obs::Counter* plans_pruned_bound = nullptr;
  obs::Counter* plans_refined = nullptr;  ///< refinement cost evaluations
  obs::Counter* subsets_searched = nullptr;  ///< level subsets swept
};

/// Controls for the brute-force interval search of paper Sec. III-C.
///
/// The paper sweeps every point of a bounded region; we keep that
/// guarantee-by-coverage spirit but split the sweep into a coarse pass
/// (log-spaced tau0 grid x a geometric ladder of integer counts) followed
/// by deterministic coordinate-descent refinement around the best coarse
/// point. Tests verify the two-pass search matches an exhaustive sweep on
/// systems small enough to brute-force densely.
struct OptimizerOptions {
  int coarse_tau_points = 96;   ///< log-spaced tau0 samples in (tau_min, T_B)
  double tau_min = 1e-3;        ///< minutes; lower edge of the tau0 grid
  int max_count = 128;          ///< upper bound on each pattern count N_k
  int refine_rounds = 64;       ///< cap on coordinate-descent iterations

  /// Additionally search plans that drop the most expensive suffix of
  /// levels (Sec. IV-F: short applications skip level L and risk a scratch
  /// restart). Disable to reproduce techniques that always use all levels
  /// (Moody et al.).
  bool allow_suffix_skipping = true;

  /// When set, restrict every candidate plan to exactly these system
  /// levels (e.g. {L-2, L-1} for the Di et al. two-level technique, or
  /// {L-1} for traditional checkpoint/restart). Overrides suffix skipping.
  std::vector<int> restrict_levels;

  /// Observe-only counters for the search (docs/OBSERVABILITY.md).
  /// Non-owning; ignored by JSON (de)serialization and by comparisons.
  OptimizerMetrics* metrics = nullptr;

  /// Observe-only span sink for the search phases ("optimizer.coarse_sweep",
  /// "optimizer.sweep_slice" (per-plan) / "optimizer.sweep_block" (staged),
  /// "optimizer.refine"; docs/OBSERVABILITY.md). Same contract as metrics:
  /// non-owning, null skips all instrumentation, results are bit-identical
  /// either way.
  obs::TraceSink* trace = nullptr;

  /// Rejects option combinations the search cannot serve, naming the
  /// offending fields: non-positive grid sizes/rounds, and a tau_min at or
  /// above system.base_time * (1 - 1e-9) — the upper edge of the tau0
  /// grid — which would silently yield a descending or duplicate-point
  /// log grid. Called by every optimize_intervals* entry point; throws
  /// std::invalid_argument.
  void validate(const systems::SystemConfig& system) const;
};

/// Outcome of an interval search.
struct OptimizationResult {
  CheckpointPlan plan;
  double expected_time = 0.0;
  double efficiency = 0.0;       ///< T_B / expected_time per the model
  std::size_t evaluations = 0;   ///< model evaluations performed
  /// Coarse-pass leaf evaluations (evaluations minus refinement), and the
  /// leaf plans eliminated without evaluation by the two cuts. Together
  /// they tile the coarse lattice exactly:
  ///   coarse_evaluations + pruned_feasibility + pruned_bound
  ///     == tau points x ladder^dims, summed over level subsets.
  std::size_t coarse_evaluations = 0;
  std::size_t pruned_feasibility = 0;  ///< tau0 * prod(N+1) > T_B cuts
  std::size_t pruned_bound = 0;        ///< admissible lower-bound cuts
};

/// Minimizes model.expected_time over the bounded plan space for
/// @p system. The returned plan is feasible (finite expected time);
/// throws std::runtime_error if no candidate is feasible.
///
/// @p pool parallelizes the coarse sweep jointly across (level subset,
/// tau0) slices — so even 2-level systems expose subsets x tau-points
/// units of work; results are identical with or without a pool.
OptimizationResult optimize_intervals(const ExecutionTimeModel& model,
                                      const systems::SystemConfig& system,
                                      const OptimizerOptions& options = {},
                                      util::ThreadPool* pool = nullptr);

/// Expected-time cost of one candidate plan. The plan's level subset is
/// fixed by the factory call that produced the function; tau0 and counts
/// vary per call. Copied once per slice; each copy is called from one
/// thread at a time: every (subset, tau0) slice of the coarse sweep calls
/// its own copy, walking the count lattice in lexicographic order, and
/// refinement calls the factory's original serially. A cost function may
/// therefore keep mutable per-copy state (e.g. a memo of the previous
/// plan's prefix) without locks, as long as its value depends only on
/// the plan.
using PlanCostFn = std::function<double(const CheckpointPlan& plan)>;

/// Called once per candidate level subset before its sweep begins; the
/// returned cost function is then used for every coarse-sweep and
/// refinement evaluation over that subset. This is the hook that lets the
/// engine layer precompute per-(system, level-subset) invariants once and
/// reuse them across the whole search instead of rebuilding them per plan.
using SubsetEvaluatorFactory =
    std::function<PlanCostFn(const std::vector<int>& levels)>;

/// optimize_intervals with per-subset evaluators. Sweep order, pruning,
/// refinement, and tie-breaking are identical to the model overload, so
/// two factories whose cost functions agree bit-for-bit select identical
/// plans with identical evaluation counts.
OptimizationResult optimize_intervals_with(
    const SubsetEvaluatorFactory& factory,
    const systems::SystemConfig& system, const OptimizerOptions& options = {},
    util::ThreadPool* pool = nullptr);

/// The precomputed kernel for one candidate level subset. Called once per
/// subset, serially, in search order; the returned reference must stay
/// valid until the search ends (the caller owns the kernels, e.g. the
/// engine's context cache or a per-search arena).
using SubsetKernelFactory =
    std::function<const DauweKernel&(const std::vector<int>& levels)>;

/// optimize_intervals driven by the prefix-incremental kernel cursor
/// (DauweKernel::Cursor): entering enumeration depth k computes stage k's
/// transcendental terms once per count prefix instead of once per leaf
/// plan, so only the top stage and the scratch wrap run per candidate.
/// The coarse pass walks eight tau0 grid points per task in lockstep and
/// skips count subtrees whose admissible first-order lower bound
/// (Benoit-style single-level relaxation; docs/PERFORMANCE.md) exceeds
/// the best expected time already found for the same level subset.
/// Every leaf value is bit-identical to kernel.expected_time (the cursor
/// *is* the per-plan path's arithmetic), and a subtree holding a subset's
/// optimum can never satisfy the cut, so the selected plan, its expected
/// time and its efficiency match the per-plan overloads exactly.
/// Evaluation counts shrink instead, and vary run to run under a thread
/// pool with incumbent propagation timing; the lattice accounting
/// identity on OptimizationResult stays exact.
OptimizationResult optimize_intervals_staged(
    const SubsetKernelFactory& factory, const systems::SystemConfig& system,
    const OptimizerOptions& options = {}, util::ThreadPool* pool = nullptr);

/// The geometric candidate ladder for pattern counts used by the coarse
/// pass: 0,1,2,... then ~1.25x steps up to @p max_count. Exposed for
/// tests.
std::vector<int> count_ladder(int max_count);

}  // namespace mlck::core
