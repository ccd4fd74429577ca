#pragma once

// Frozen reference of the SCR (Moody et al.) model as a straight per-plan
// recursion: the effective system is rebuilt, both period passes run in
// full and every retry/escalation term is recomputed for each plan. The
// library's per-subset MoodyKernel hoists the plan-invariant half of this
// arithmetic and memoizes bootstrap stages across consecutive plans; the
// randomized suite in test_moody_kernel.cpp holds it to these values bit
// for bit. Test-only: do not "fix" anything here, the point is that it
// never changes.

#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/effective.h"
#include "core/model.h"
#include "core/plan.h"
#include "math/exponential.h"
#include "math/retry.h"
#include "systems/system_config.h"

namespace mlck::testref {

namespace moody_detail {

constexpr int kMaxLevels = 16;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expected duration of one full checkpoint pattern, charging rho[k] per
/// severity-k recovery; records tau entering stage k in tau_entering.
inline double period_duration(const core::EffectiveSystem& eff,
                              const core::CheckpointPlan& plan,
                              const double* rho, double* tau_entering) {
  const int K = plan.used_levels();
  assert(K <= kMaxLevels);
  std::array<double, kMaxLevels> tau_hist{};
  std::array<double, kMaxLevels> gamma_e_hist{};
  double tau = plan.tau0;
  double lambda_c = 0.0;
  for (int k = 0; k < K; ++k) {
    const auto& lvl = eff.level[static_cast<std::size_t>(k)];
    lambda_c += lvl.lambda;
    const bool top = (k == K - 1);
    const double m =
        top ? 1.0
            : static_cast<double>(plan.counts[static_cast<std::size_t>(k)] + 1);
    const double c =
        top ? 1.0
            : static_cast<double>(plan.counts[static_cast<std::size_t>(k)]);

    const double gamma = math::expected_retries(tau, lvl.lambda);
    const double e_tau = math::truncated_mean(tau, lvl.lambda);
    tau_hist[static_cast<std::size_t>(k)] = tau;
    gamma_e_hist[static_cast<std::size_t>(k)] = gamma * e_tau;
    if (tau_entering != nullptr) tau_entering[k] = tau;
    const double t_w_tau = gamma * e_tau * m;

    const double t_ck_ok = c * lvl.checkpoint_cost;
    const double alpha =
        math::expected_retries(lvl.checkpoint_cost, lambda_c, c);
    const double t_ck_fail =
        alpha * math::truncated_mean(lvl.checkpoint_cost, lambda_c);
    double lost_intervals = 0.0;
    for (int j = 0; j <= k; ++j) {
      lost_intervals += (tau_hist[static_cast<std::size_t>(j)] +
                         gamma_e_hist[static_cast<std::size_t>(j)]) *
                        eff.level[static_cast<std::size_t>(j)].severity_share;
    }
    const double t_w_ck = alpha * lost_intervals;

    const double s_k = lvl.severity_share;
    const double beta = s_k * alpha + gamma * (s_k * alpha + m);
    const double t_recover = beta * rho[k];

    tau = m * tau + t_ck_ok + t_ck_fail + t_w_tau + t_w_ck + t_recover;
    if (!std::isfinite(tau)) return kInf;
  }
  return tau;
}

/// Plain geometric-retry recovery cost of level k.
inline double retry_recovery_cost(const core::EffectiveSystem& eff, int k) {
  double lambda_c = 0.0;
  for (int j = 0; j <= k; ++j) {
    lambda_c += eff.level[static_cast<std::size_t>(j)].lambda;
  }
  const double restart = eff.level[static_cast<std::size_t>(k)].restart_cost;
  const double p = math::failure_probability(restart, lambda_c);
  const double q = 1.0 - p;
  if (q <= 0.0) return kInf;
  return restart + (p / q) * math::truncated_mean(restart, lambda_c);
}

/// Escalation-aware recovery cost per level into rho[0..K).
inline void escalation_recovery_costs(const core::EffectiveSystem& eff,
                                      const core::CheckpointPlan& plan,
                                      double* rho) {
  const int K = static_cast<int>(eff.level.size());
  std::array<double, kMaxLevels> rho_retry{};
  for (int j = 0; j < K; ++j) {
    rho_retry[static_cast<std::size_t>(j)] = retry_recovery_cost(eff, j);
  }
  std::array<double, kMaxLevels> tau_entering{};
  period_duration(eff, plan, rho_retry.data(), tau_entering.data());

  for (int j = K - 1; j >= 0; --j) {
    const auto& lvl = eff.level[static_cast<std::size_t>(j)];
    double lambda_c = 0.0;
    for (int i = 0; i <= j; ++i) {
      lambda_c += eff.level[static_cast<std::size_t>(i)].lambda;
    }
    const double restart = lvl.restart_cost;
    const double p = math::failure_probability(restart, lambda_c);
    const double q = 1.0 - p;
    if (q <= 0.0 || lambda_c <= 0.0) {
      rho[j] = (q <= 0.0) ? kInf : restart;
      continue;
    }
    const double e_fail = math::truncated_mean(restart, lambda_c);
    const double s = lvl.lambda / lambda_c;
    if (j == K - 1) {
      rho[j] = restart + (p / q) * e_fail;
      continue;
    }
    const double rho_up = rho[j + 1];
    const double lost_up = 0.5 * tau_entering[static_cast<std::size_t>(j) + 1];
    const double denom = 1.0 - p * (1.0 - s);
    rho[j] = (denom <= 0.0)
                 ? kInf
                 : (q * restart + p * e_fail + p * s * (rho_up + lost_up)) /
                       denom;
  }
}

}  // namespace moody_detail

/// Reference MoodyModel::recovery_cost.
inline double moody_recovery_cost(const core::EffectiveSystem& eff,
                                  const core::CheckpointPlan& plan, int k) {
  std::array<double, moody_detail::kMaxLevels> rho{};
  moody_detail::escalation_recovery_costs(eff, plan, rho.data());
  return rho[static_cast<std::size_t>(k)];
}

/// Reference MoodyModel::steady_state_efficiency.
inline double moody_steady_state_efficiency(
    const systems::SystemConfig& system, const core::CheckpointPlan& plan) {
  const core::EffectiveSystem eff = core::make_effective(system, plan);
  if (eff.scratch_lambda > 0.0) return 0.0;
  std::array<double, moody_detail::kMaxLevels> rho{};
  moody_detail::escalation_recovery_costs(eff, plan, rho.data());
  const double period =
      moody_detail::period_duration(eff, plan, rho.data(), nullptr);
  if (!std::isfinite(period) || period <= 0.0) return 0.0;
  return plan.work_per_top_period() / period;
}

/// Reference MoodyModel::expected_time.
inline double moody_expected_time(const systems::SystemConfig& system,
                                  const core::CheckpointPlan& plan) {
  if (plan.work_per_top_period() > system.base_time) {
    return moody_detail::kInf;
  }
  const double eff = moody_steady_state_efficiency(system, plan);
  if (eff <= 0.0) return moody_detail::kInf;
  return system.base_time / eff;
}

/// The reference as an ExecutionTimeModel, for optimize_intervals.
class MoodyReferenceModel : public core::ExecutionTimeModel {
 public:
  double expected_time(const systems::SystemConfig& system,
                       const core::CheckpointPlan& plan) const override {
    return moody_expected_time(system, plan);
  }
};

}  // namespace mlck::testref
