#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "core/dauwe_model.h"
#include "core/effective.h"
#include "core/model.h"
#include "core/plan.h"
#include "math/failure_law.h"
#include "systems/system_config.h"

namespace mlck::core {

/// Everything the Dauwe recursion produces for one used level, per
/// enclosing tau_{k+1} period. Exposed so predict() can total the
/// per-event breakdown.
struct DauweStageTerms {
  double checkpoint_ok = 0.0;
  double checkpoint_failed = 0.0;
  double restart_ok = 0.0;
  double restart_failed = 0.0;
  double rework_compute = 0.0;
  double rework_checkpoint = 0.0;
  double multiplicity = 0.0;  ///< m_k: tau_k intervals per tau_{k+1} period
};

/// The tau-independent quantities of one used level: the effective-rate
/// re-binning of core/effective plus the checkpoint/restart retry terms of
/// Eqns. 8/10/12/14, which depend only on (system, level subset) — never
/// on tau0 or the pattern counts.
struct DauweLevelTerms {
  double lambda = 0.0;          ///< effective severity rate of this level
  double checkpoint_cost = 0.0;
  double restart_cost = 0.0;
  double severity_share = 0.0;  ///< S_k = lambda / full-system lambda
  double lambda_c = 0.0;        ///< cumulative rate through this level
  double ck_retry = 0.0;        ///< expected_retries(delta_k, lambda_c)
  double ck_trunc = 0.0;        ///< truncated_mean(delta_k, lambda_c)
  double r_retry = 0.0;         ///< expected_retries(R_k, lambda_c)
  double r_trunc = 0.0;         ///< truncated_mean(R_k, lambda_c)
  /// Failure-law primitive at this level's severity rate (mean 1 / lambda),
  /// for the cursor's per-interval gamma_k / E(tau_k) pair. Null on the
  /// exponential fast path (and for zero-rate levels), where the cursor
  /// calls the closed forms of math/exponential.h directly — that branch
  /// is what keeps the default model bit-identical to the pre-primitive
  /// code.
  std::shared_ptr<const math::LawPrimitive> law;
};

/// The hot core of the paper's model, split into a build step and an
/// evaluation step. Building precomputes every tau-independent per-level
/// quantity for one (system, level-subset) pair; evaluating runs the
/// Eqns. 4-14 recursion over those terms for a concrete (tau0, counts).
///
/// The factoring is exact: expected_retries(t, rate, n) is defined as
/// expected_retries(t, rate) * n, so caching the unit term and multiplying
/// by the per-plan count reproduces DauweModel's arithmetic bit for bit.
/// The optimizer's coarse sweep and refinement evaluate ~10^5..10^6 plans
/// per level subset against one kernel, skipping the per-plan effective-
/// system rebuild and two thirds of the expm1/exp calls.
class DauweKernel {
 public:
  DauweKernel() = default;

  /// Precomputes the invariants for plans over @p levels (ascending,
  /// unique, valid system level indices, size 1..systems::kMaxLevels;
  /// other sizes throw std::invalid_argument). When
  /// @p law names a non-exponential family, every per-level retry /
  /// truncated-mean term is served by that family's primitives at the
  /// corresponding effective rate; a null or exponential @p law selects
  /// the closed-form fast path, bit-identical to the law-less kernel.
  DauweKernel(const systems::SystemConfig& system,
              const std::vector<int>& levels, const DauweOptions& options,
              std::shared_ptr<const math::FailureLaw> law = nullptr);

  /// Prefix-incremental cursor over the Eqns. 4-14 recursion.
  ///
  /// Stage k's per-interval failure terms — gamma_k (Eqn. 5) and the
  /// truncated mean E(tau_k) (Eqn. 6), the only transcendental work of
  /// the stage — depend solely on the (tau0, counts[0..k-1]) prefix, so a
  /// sweep that enumerates counts depth-first can compute them once per
  /// prefix node instead of once per leaf. The cursor keeps that prefix
  /// as an explicit stage-state stack {tau_k, gamma_k, gamma_k E(tau_k)}:
  ///
  ///   cursor.begin(tau0);                 // enters stage 0
  ///   cursor.push_stage(0, counts[0]);    // completes stage 0, enters 1
  ///   ...                                 // one push per interior stage
  ///   cursor.finish_expected_time(prod);  // top stage + scratch wrap
  ///
  /// Re-pushing at depth k simply overwrites stages > k, so siblings in
  /// an enumeration share every shallower stage. The per-plan entry
  /// points (expected_time / recursion) drive a fresh cursor through the
  /// same member functions, so staged and per-plan evaluation execute
  /// literally the same arithmetic and agree bit for bit.
  class Cursor {
   public:
    explicit Cursor(const DauweKernel& kernel) noexcept : kernel_(&kernel) {}

    /// Starts a fresh prefix: enters stage 0 with computation interval
    /// @p tau0 (computing its gamma/E pair, the slice-invariant work).
    void begin(double tau0) noexcept;

    /// Completes interior stage @p k (0-based, k < levels().size() - 1)
    /// with pattern count @p n using the cached entering state, and
    /// enters stage k + 1. Stages deeper than k + 1 become stale and
    /// must be re-pushed before the next finish. @p term optionally
    /// receives the stage's per-period breakdown.
    void push_stage(int k, int n, DauweStageTerms* term = nullptr) noexcept;

    /// Completes the top stage for the current prefix: the expected time
    /// of one full execution *before* the restart-from-scratch wrap,
    /// where @p pattern = prod(counts[k] + 1) over the pushed interior
    /// stages. +inf when the plan is infeasible (fewer than one
    /// top-level period, Eqn. 3) or any entered stage overflowed. Leaves
    /// the prefix untouched, so the enumeration can continue pushing
    /// from any shallower depth.
    double finish_top(double pattern,
                      DauweStageTerms* term = nullptr) const noexcept;

    /// finish_top plus the scratch wrap: exactly
    /// DauweKernel::expected_time of the pushed plan.
    double finish_expected_time(double pattern) const noexcept;

    /// Read-only views of the prefix stack for stage @p k (0 <= k <=
    /// deepest entered stage): the entering interval tau_k, gamma_k, and
    /// gamma_k * E(tau_k). The optimizer's admissible subtree bound is
    /// built from these (docs/PERFORMANCE.md); they are exactly the
    /// values the recursion itself uses, so a bound assembled from them
    /// inherits the cursor's arithmetic. When dead_at(k) the tau is
    /// non-finite and the gamma pair is stale — callers must treat the
    /// subtree as +inf rather than consume the values.
    double stage_tau(int k) const noexcept {
      return tau_[static_cast<std::size_t>(k)];
    }
    double stage_gamma(int k) const noexcept {
      return gamma_[static_cast<std::size_t>(k)];
    }
    double stage_gamma_e(int k) const noexcept {
      return gamma_e_[static_cast<std::size_t>(k)];
    }
    /// True when some stage <= @p k overflowed: every leaf under the
    /// current prefix evaluates to +inf.
    bool dead_at(int k) const noexcept { return dead_from_ <= k; }

   private:
    /// Enters stage @p k with interval @p tau: records tau_k and the
    /// stage's gamma/E pair, or marks the prefix dead on overflow.
    void enter(int k, double tau) noexcept;

    const DauweKernel* kernel_;
    std::array<double, systems::kMaxLevels> tau_;  ///< tau_k entering stage k
    std::array<double, systems::kMaxLevels> gamma_;    ///< gamma_k (Eqn. 5)
    std::array<double, systems::kMaxLevels> gamma_e_;  ///< gamma_k E(tau_k)
    /// Shallowest stage whose entering tau is non-finite (its whole
    /// subtree evaluates to +inf); systems::kMaxLevels + 1 when clean.
    int dead_from_ = systems::kMaxLevels + 1;
  };

  /// Fresh cursor; call begin() before pushing stages.
  Cursor cursor() const noexcept { return Cursor(*this); }

  /// Expected execution time for (tau0, counts) over the kernel's level
  /// subset, including the restart-from-scratch wrap; +inf for infeasible
  /// plans. counts.size() must equal levels().size() - 1.
  double expected_time(double tau0, std::span<const int> counts) const noexcept;

  /// Full forecast with the per-event breakdown; bit-identical to
  /// DauweModel::predict on the same plan. @p plan.levels must equal the
  /// kernel's subset (checked by assert only; callers route by subset).
  Prediction predict(const CheckpointPlan& plan) const;

  /// The recursion before the scratch-severity wrap; +inf when infeasible.
  /// When @p stages is non-null it receives levels().size() entries.
  double recursion(double tau0, std::span<const int> counts,
                   DauweStageTerms* stages) const noexcept;

  /// Applies the restart-from-scratch wrap (severities above the top used
  /// level re-run the whole execution) to a finite before-scratch time.
  double wrap_scratch(double before_scratch) const noexcept;

  const std::vector<DauweLevelTerms>& levels() const noexcept {
    return level_;
  }
  double scratch_lambda() const noexcept { return scratch_lambda_; }
  double base_time() const noexcept { return base_time_; }
  const DauweOptions& options() const noexcept { return options_; }
  /// Primitive driving the restart-from-scratch wrap; null on the
  /// exponential fast path.
  const math::LawPrimitive* scratch_law() const noexcept {
    return scratch_law_.get();
  }

 private:
  /// All terms of stage k (Eqns. 4-14) given its entering state: the
  /// multiplicity @p m, checkpoint count @p c, the stage's gamma, and the
  /// prefix histories (entries 0..k valid). Returns tau_{k+1}.
  double stage_output(int k, double m, double c, double gamma,
                      const double* tau_hist, const double* gamma_e_hist,
                      DauweStageTerms* term) const noexcept;

  std::vector<DauweLevelTerms> level_;
  double scratch_lambda_ = 0.0;
  double base_time_ = 0.0;
  DauweOptions options_;
  /// Family primitive at scratch_lambda_ for wrap_scratch / predict; null
  /// on the exponential fast path or when no severity restarts from
  /// scratch.
  std::shared_ptr<const math::LawPrimitive> scratch_law_;
};

}  // namespace mlck::core
