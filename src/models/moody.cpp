#include "models/moody.h"

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "math/exponential.h"
#include "math/retry.h"

namespace mlck::models {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using systems::kMaxLevels;

/// The SCR recursion for one (system, level subset), split into its
/// plan-invariant half (built once) and the per-plan half.
///
/// Per plan the model runs two passes of the same per-stage recursion:
/// a bootstrap pass that prices restarts at plain geometric retry and
/// records the overhead-inclusive duration between level-k checkpoints,
/// then — once the escalation pass has turned those durations into
/// escalation-aware recovery costs rho — the final pass that yields the
/// expected period duration. Everything that depends only on the effective
/// system (cumulative rates, the checkpoint retry terms, the plain-retry
/// costs, the escalation constants and the levels whose rho is fixed) is
/// computed here once. Hoisting only moves pure subexpressions, in the
/// same operation order: alpha = ck_retry * c is exact because
/// expected_retries(t, r, n) is defined as expected_retries(t, r) * n, and
/// the escalation numerator (q R + p E_fail) + (p s)(rho_up + lost_up)
/// already associated that way.
///
/// The bootstrap pass's stage k depends only on (tau0, counts[0..k]), so
/// the kernel also memoizes the previous plan's bootstrap prefix and
/// recomputes from the first count that changed; the optimizer's
/// per-slice sweep walks counts in lexicographic order at fixed tau0, so
/// consecutive plans mostly differ in the last count only. The memo makes
/// evaluation stateful: one kernel must not be called from two threads
/// at once (the optimizer copies the cost function per slice).
class MoodyKernel {
 public:
  explicit MoodyKernel(const core::EffectiveSystem& eff);

  /// Escalation-aware recovery cost of each level for the plan
  /// (tau0, counts) into rho[0..K).
  void recovery_costs(double tau0, std::span<const int> counts, double* rho);

  /// Work per top-level period over the expected period duration; 0 when
  /// some severity is left uncovered (property 3) or the recursion
  /// overflows.
  double efficiency(const core::CheckpointPlan& plan);

  /// T_B / efficiency, +inf for plans outside the model (fewer than one
  /// full pattern, uncovered severities, overflow).
  double expected_time(double base_time, const core::CheckpointPlan& plan);

 private:
  struct Level {
    double lambda = 0.0;
    double checkpoint_cost = 0.0;
    double severity_share = 0.0;
    double ck_retry = 0.0;   ///< expected_retries(delta_k, lambda_c)
    double ck_trunc = 0.0;   ///< truncated_mean(delta_k, lambda_c)
    double rho_retry = 0.0;  ///< plain geometric-retry recovery cost
    /// Escalation: rho is either fixed (top level, certain restart
    /// failure, zero cumulative rate, non-positive denominator) or
    /// (esc_base + esc_up * (rho_{k+1} + lost_{k+1})) / esc_denom.
    bool rho_fixed = true;
    double rho = 0.0;
    double esc_base = 0.0;   ///< q R + p E_fail
    double esc_up = 0.0;     ///< p s
    double esc_denom = 0.0;  ///< 1 - p (1 - s)
  };

  /// One stage of the period recursion: stage k's terms given its
  /// multiplicity @p m, checkpoint count @p c, interval failure count
  /// @p gamma, the prefix histories (entries 0..k valid) and the recovery
  /// cost @p rho charged per severity-k failure. Returns tau_{k+1}.
  double stage_output(int k, double m, double c, double gamma,
                      const double* tau_hist, const double* gamma_e_hist,
                      double rho) const noexcept;

  /// Brings the bootstrap memo up to date for (tau0, counts): stages
  /// 0..K-2 with rho_retry, recording tau_[1..K-1].
  void bootstrap(double tau0, std::span<const int> counts);

  /// Escalation pass, top-down, over the current bootstrap durations.
  void escalate(double* rho) const noexcept;

  /// Expected duration of one full pattern; +inf on overflow.
  double period(double tau0, std::span<const int> counts);

  int levels_ = 0;
  bool uncovered_ = false;
  std::array<Level, kMaxLevels> level_{};

  // Bootstrap memo of the previous plan. tau_[k] is the duration entering
  // stage k (0 past an overflowed stage, like the zero-initialised
  // durations the recursion never reached), gamma_/gamma_e_ the stage's
  // gamma and gamma E(tau) for k < K-1. Entries up to the dead stage (all
  // of them when clean) belong to memo_tau0_ and memo_counts_.
  bool memo_valid_ = false;
  std::uint64_t memo_tau0_ = 0;  ///< bit pattern of the memoized tau0
  std::array<int, kMaxLevels> memo_counts_{};
  std::array<double, kMaxLevels> tau_{};
  std::array<double, kMaxLevels> gamma_{};
  std::array<double, kMaxLevels> gamma_e_{};
  /// First stage whose entering duration overflowed; kMaxLevels when
  /// clean.
  int dead_ = kMaxLevels;
};

MoodyKernel::MoodyKernel(const core::EffectiveSystem& eff)
    : levels_(static_cast<int>(eff.level.size())),
      uncovered_(eff.scratch_lambda > 0.0) {
  if (levels_ < 1 || levels_ > kMaxLevels) {
    throw std::invalid_argument(
        "MoodyModel: level subset size must be 1.." +
        std::to_string(kMaxLevels) + " (got " + std::to_string(levels_) +
        ")");
  }
  double lambda_c = 0.0;
  for (int k = 0; k < levels_; ++k) {
    const core::EffectiveLevel& in = eff.level[static_cast<std::size_t>(k)];
    Level& lvl = level_[static_cast<std::size_t>(k)];
    lambda_c += in.lambda;
    lvl.lambda = in.lambda;
    lvl.checkpoint_cost = in.checkpoint_cost;
    lvl.severity_share = in.severity_share;
    lvl.ck_retry = math::expected_retries(in.checkpoint_cost, lambda_c);
    lvl.ck_trunc = math::truncated_mean(in.checkpoint_cost, lambda_c);

    const double restart = in.restart_cost;
    const double p = math::failure_probability(restart, lambda_c);
    const double q = 1.0 - p;
    const double e_fail = math::truncated_mean(restart, lambda_c);
    lvl.rho_retry = (q <= 0.0) ? kInf : restart + (p / q) * e_fail;

    // A repeated same-severity failure while restarting level k escalates
    // to level k+1, paying that level's full recovery plus (on average)
    // half of the overhead-inclusive duration between level-(k+1)
    // checkpoints of re-executed progress; the top level retries.
    if (q <= 0.0 || lambda_c <= 0.0) {
      lvl.rho = (q <= 0.0) ? kInf : restart;
      continue;
    }
    const double s = in.lambda / lambda_c;
    if (k == levels_ - 1) {
      lvl.rho = restart + (p / q) * e_fail;
      continue;
    }
    const double denom = 1.0 - p * (1.0 - s);
    if (denom <= 0.0) {
      lvl.rho = kInf;
      continue;
    }
    lvl.rho_fixed = false;
    lvl.esc_base = q * restart + p * e_fail;
    lvl.esc_up = p * s;
    lvl.esc_denom = denom;
  }
}

double MoodyKernel::stage_output(int k, double m, double c, double gamma,
                                 const double* tau_hist,
                                 const double* gamma_e_hist,
                                 double rho) const noexcept {
  const Level& lvl = level_[static_cast<std::size_t>(k)];
  const double t_w_tau = gamma_e_hist[k] * m;
  const double t_ck_ok = c * lvl.checkpoint_cost;
  const double alpha = lvl.ck_retry * c;
  const double t_ck_fail = alpha * lvl.ck_trunc;
  double lost_intervals = 0.0;
  for (int j = 0; j <= k; ++j) {
    lost_intervals += (tau_hist[j] + gamma_e_hist[j]) *
                      level_[static_cast<std::size_t>(j)].severity_share;
  }
  const double t_w_ck = alpha * lost_intervals;

  const double s_k = lvl.severity_share;
  const double beta = s_k * alpha + gamma * (s_k * alpha + m);
  const double t_recover = beta * rho;

  return m * tau_hist[k] + t_ck_ok + t_ck_fail + t_w_tau + t_w_ck + t_recover;
}

void MoodyKernel::bootstrap(double tau0, std::span<const int> counts) {
  const int top = levels_ - 1;
  int from = 0;  // first stage to recompute
  const auto bits = std::bit_cast<std::uint64_t>(tau0);
  if (!memo_valid_ || bits != memo_tau0_) {
    memo_valid_ = true;
    memo_tau0_ = bits;
    tau_[0] = tau0;
    gamma_[0] = math::expected_retries(tau0, level_[0].lambda);
    gamma_e_[0] = gamma_[0] * math::truncated_mean(tau0, level_[0].lambda);
  } else {
    while (from < top && counts[static_cast<std::size_t>(from)] ==
                             memo_counts_[static_cast<std::size_t>(from)]) {
      ++from;
    }
    // Stage dead_ - 1 overflowed and depends on counts[0..dead_-1] only.
    if (from >= dead_) return;
  }
  dead_ = kMaxLevels;
  for (int k = from; k < top; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int n = counts[ks];
    memo_counts_[ks] = n;
    const double out = stage_output(
        k, static_cast<double>(n + 1), static_cast<double>(n), gamma_[ks],
        tau_.data(), gamma_e_.data(), level_[ks].rho_retry);
    if (!std::isfinite(out)) {
      dead_ = k + 1;
      for (int j = k + 1; j <= top; ++j) {
        tau_[static_cast<std::size_t>(j)] = 0.0;
      }
      return;
    }
    tau_[ks + 1] = out;
    if (k + 1 < top) {
      const double lambda = level_[ks + 1].lambda;
      gamma_[ks + 1] = math::expected_retries(out, lambda);
      gamma_e_[ks + 1] = gamma_[ks + 1] * math::truncated_mean(out, lambda);
    }
  }
}

void MoodyKernel::escalate(double* rho) const noexcept {
  for (int j = levels_ - 1; j >= 0; --j) {
    const Level& lvl = level_[static_cast<std::size_t>(j)];
    if (lvl.rho_fixed) {
      rho[j] = lvl.rho;
      continue;
    }
    const double rho_up = rho[j + 1];
    const double lost_up = 0.5 * tau_[static_cast<std::size_t>(j) + 1];
    rho[j] = (lvl.esc_base + lvl.esc_up * (rho_up + lost_up)) / lvl.esc_denom;
  }
}

void MoodyKernel::recovery_costs(double tau0, std::span<const int> counts,
                                 double* rho) {
  bootstrap(tau0, counts);
  escalate(rho);
}

double MoodyKernel::period(double tau0, std::span<const int> counts) {
  std::array<double, kMaxLevels> rho;
  recovery_costs(tau0, counts, rho.data());

  // Final pass; stage 0's gamma/E(tau0) is the bootstrap's.
  std::array<double, kMaxLevels> tau_hist;
  std::array<double, kMaxLevels> gamma_e_hist;
  double tau = tau0;
  double gamma = gamma_[0];
  gamma_e_hist[0] = gamma_e_[0];
  for (int k = 0; k < levels_; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    tau_hist[ks] = tau;
    if (k > 0) {
      gamma = math::expected_retries(tau, level_[ks].lambda);
      gamma_e_hist[ks] = gamma * math::truncated_mean(tau, level_[ks].lambda);
    }
    const bool top = (k == levels_ - 1);
    const double m = top ? 1.0 : static_cast<double>(counts[ks] + 1);
    const double c = top ? 1.0 : static_cast<double>(counts[ks]);
    tau = stage_output(k, m, c, gamma, tau_hist.data(), gamma_e_hist.data(),
                       rho[ks]);
    if (!std::isfinite(tau)) return kInf;
  }
  return tau;
}

double MoodyKernel::efficiency(const core::CheckpointPlan& plan) {
  // Property 3: SCR always covers every severity; a plan that cannot
  // recover some failures is outside the model.
  if (uncovered_) return 0.0;
  const double p = period(plan.tau0, plan.counts);
  if (!std::isfinite(p) || p <= 0.0) return 0.0;
  return plan.work_per_top_period() / p;
}

double MoodyKernel::expected_time(double base_time,
                                  const core::CheckpointPlan& plan) {
  // Keep the paper's feasibility bound: at least one full pattern must fit.
  if (plan.work_per_top_period() > base_time) return kInf;
  const double eff = efficiency(plan);
  if (eff <= 0.0) return kInf;
  return base_time / eff;
}

}  // namespace

double MoodyModel::recovery_cost(const core::EffectiveSystem& eff,
                                 const core::CheckpointPlan& plan, int k) {
  assert(k >= 0 && k < static_cast<int>(eff.level.size()));
  std::array<double, kMaxLevels> rho{};
  MoodyKernel(eff).recovery_costs(plan.tau0, plan.counts, rho.data());
  return rho[static_cast<std::size_t>(k)];
}

double MoodyModel::steady_state_efficiency(
    const systems::SystemConfig& system,
    const core::CheckpointPlan& plan) const {
  return MoodyKernel(core::make_effective(system, plan)).efficiency(plan);
}

double MoodyModel::expected_time(const systems::SystemConfig& system,
                                 const core::CheckpointPlan& plan) const {
  return MoodyKernel(core::make_effective(system, plan))
      .expected_time(system.base_time, plan);
}

MoodyTechnique::MoodyTechnique(core::OptimizerOptions optimizer_options)
    : optimizer_options_(optimizer_options) {
  optimizer_options_.allow_suffix_skipping = false;
}

core::TechniqueResult MoodyTechnique::do_select_plan(
    const systems::SystemConfig& system, util::ThreadPool* pool) const {
  // One kernel per level subset; the optimizer copies the cost function
  // (and with it the kernel's bootstrap memo) into each sweep slice.
  const auto factory = [&system](const std::vector<int>& levels) {
    return core::PlanCostFn(
        [kernel = MoodyKernel(core::make_effective(system, levels)),
         base_time = system.base_time](
            const core::CheckpointPlan& plan) mutable {
          return kernel.expected_time(base_time, plan);
        });
  };
  const auto result = core::optimize_intervals_with(
      factory, system, optimizer_options_, pool);
  core::TechniqueResult out;
  out.technique = name();
  out.plan = result.plan;
  out.predicted_time = result.expected_time;
  out.predicted_efficiency = result.efficiency;
  return out;
}

}  // namespace mlck::models
