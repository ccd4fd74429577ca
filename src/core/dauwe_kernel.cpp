#include "core/dauwe_kernel.h"

#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "math/exponential.h"
#include "math/retry.h"

namespace mlck::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

DauweKernel::DauweKernel(const systems::SystemConfig& system,
                         const std::vector<int>& levels,
                         const DauweOptions& options,
                         std::shared_ptr<const math::FailureLaw> law)
    : base_time_(system.base_time), options_(options) {
  if (levels.empty() ||
      levels.size() > static_cast<std::size_t>(systems::kMaxLevels)) {
    throw std::invalid_argument(
        "DauweKernel: level subset size must be 1.." +
        std::to_string(systems::kMaxLevels) + " (got " +
        std::to_string(levels.size()) + ")");
  }
  // Null or explicit-exponential law selects the closed-form fast path:
  // no primitive is ever built and every term below computes through the
  // exact same math/exponential.h calls as the law-less kernel, so the
  // default model stays bit-identical.
  const bool generalized = !math::is_exponential_family(law.get());
  const EffectiveSystem eff = make_effective(system, levels);
  scratch_lambda_ = eff.scratch_lambda;
  level_.reserve(eff.level.size());
  double lambda_c = 0.0;
  for (const EffectiveLevel& lvl : eff.level) {
    lambda_c += lvl.lambda;
    DauweLevelTerms terms;
    terms.lambda = lvl.lambda;
    terms.checkpoint_cost = lvl.checkpoint_cost;
    terms.restart_cost = lvl.restart_cost;
    terms.severity_share = lvl.severity_share;
    terms.lambda_c = lambda_c;
    if (generalized && lambda_c > 0.0) {
      const auto prim_c = law->primitive(lambda_c);
      terms.ck_retry = prim_c->expected_retries(lvl.checkpoint_cost);
      terms.ck_trunc = prim_c->truncated_mean(lvl.checkpoint_cost);
      terms.r_retry = prim_c->expected_retries(lvl.restart_cost);
      terms.r_trunc = prim_c->truncated_mean(lvl.restart_cost);
    } else {
      // Zero-rate levels stay on the closed forms under every law: the
      // conventions there (no retries, uniform-limit truncated mean) are
      // rate-independent.
      terms.ck_retry = math::expected_retries(lvl.checkpoint_cost, lambda_c);
      terms.ck_trunc = math::truncated_mean(lvl.checkpoint_cost, lambda_c);
      terms.r_retry = math::expected_retries(lvl.restart_cost, lambda_c);
      terms.r_trunc = math::truncated_mean(lvl.restart_cost, lambda_c);
    }
    if (generalized && lvl.lambda > 0.0) {
      terms.law = law->primitive(lvl.lambda);
    }
    level_.push_back(terms);
  }
  if (generalized && scratch_lambda_ > 0.0) {
    scratch_law_ = law->primitive(scratch_lambda_);
  }
}

double DauweKernel::stage_output(int k, double m, double c, double gamma,
                                 const double* tau_hist,
                                 const double* gamma_e_hist,
                                 DauweStageTerms* term) const noexcept {
  const DauweLevelTerms& lvl = level_[static_cast<std::size_t>(k)];

  // Severity share used by Eqns. 10 and 11: the printed S_k (share of
  // all failures) or, under the ablation flag, the share of failures a
  // level-k event can actually see (renormalized over lambda_c of the
  // *current* stage, which is why it cannot be folded into the kernel).
  const auto share = [&](int j) noexcept {
    const DauweLevelTerms& lj = level_[static_cast<std::size_t>(j)];
    return options_.renormalize_severity_shares ? lj.lambda / lvl.lambda_c
                                                : lj.severity_share;
  };

  // Eqn. 5 / 6: severity-k failures during computation intervals (the
  // gamma_k E(tau_k) product is part of the cursor's prefix state).
  const double t_w_tau = gamma_e_hist[k] * m;

  // Eqn. 7: successful checkpoints.
  const double t_ck_ok = c * lvl.checkpoint_cost;

  // Eqns. 8-10: failed checkpoints and the work they strand.
  const double alpha = options_.checkpoint_failures ? lvl.ck_retry * c : 0.0;
  const double t_ck_fail = alpha * lvl.ck_trunc;
  double lost_intervals = 0.0;
  for (int j = 0; j <= k; ++j) {
    lost_intervals += (tau_hist[j] + gamma_e_hist[j]) * share(j);
  }
  const double t_w_ck = alpha * lost_intervals;

  // Eqns. 11-14: restarts and failed restarts.
  const double s_k = share(k);
  const double beta = s_k * alpha + gamma * (s_k * alpha + m);
  const double t_r_ok = beta * lvl.restart_cost;
  const double zeta = options_.restart_failures ? lvl.r_retry * beta : 0.0;
  const double t_r_fail = zeta * lvl.r_trunc;

  if (term != nullptr) {
    *term = DauweStageTerms{t_ck_ok, t_ck_fail,  t_r_ok, t_r_fail,
                            t_w_tau, t_w_ck, m};
  }

  // Eqn. 4.
  return m * tau_hist[k] + t_ck_ok + t_ck_fail + t_r_ok + t_r_fail +
         t_w_tau + t_w_ck;
}

void DauweKernel::Cursor::enter(int k, double tau) noexcept {
  tau_[static_cast<std::size_t>(k)] = tau;
  if (!std::isfinite(tau)) {
    // The recursion reports the whole plan as +inf the moment any stage
    // overflows; remember the depth so every leaf under it stays +inf and
    // no transcendental is evaluated on garbage.
    if (dead_from_ > k) dead_from_ = k;
    return;
  }
  // Overwriting the stage that carried a stale dead marker revives the
  // prefix (ancestors are live by construction: push_stage never enters
  // below a dead stage).
  if (dead_from_ >= k) dead_from_ = systems::kMaxLevels + 1;
  const DauweLevelTerms& lvl = kernel_->level_[static_cast<std::size_t>(k)];
  double gamma;
  double e_tau;
  if (lvl.law != nullptr) {
    gamma = lvl.law->expected_retries(tau);
    e_tau = lvl.law->truncated_mean(tau);
  } else {
    gamma = math::expected_retries(tau, lvl.lambda);
    e_tau = math::truncated_mean(tau, lvl.lambda);
  }
  gamma_[static_cast<std::size_t>(k)] = gamma;
  gamma_e_[static_cast<std::size_t>(k)] = gamma * e_tau;
}

void DauweKernel::Cursor::begin(double tau0) noexcept {
  dead_from_ = systems::kMaxLevels + 1;
  enter(0, tau0);
}

void DauweKernel::Cursor::push_stage(int k, int n,
                                     DauweStageTerms* term) noexcept {
  assert(k >= 0 && k + 1 < static_cast<int>(kernel_->level_.size()));
  if (dead_from_ <= k) return;  // subtree is already +inf
  const double m = static_cast<double>(n + 1);
  const double c = static_cast<double>(n);
  enter(k + 1,
        kernel_->stage_output(k, m, c, gamma_[static_cast<std::size_t>(k)],
                              tau_.data(), gamma_e_.data(), term));
}

double DauweKernel::Cursor::finish_top(double pattern,
                                       DauweStageTerms* term) const noexcept {
  const int K = static_cast<int>(kernel_->level_.size());
  const double top_periods =
      kernel_->base_time_ / (tau_[0] * pattern);  // Eqn. 3
  if (!(top_periods >= 1.0)) return kInf;  // paper's solution-space bound
  if (dead_from_ < K) return kInf;         // an entered stage overflowed
  // The top level runs N_L periods but needs one fewer checkpoint: the
  // run ends after the last period instead of checkpointing it (the
  // simulator skips that trailing checkpoint too; see DESIGN.md on the
  // paper's Eqn. 7 convention).
  const double total = kernel_->stage_output(
      K - 1, top_periods, top_periods - 1.0,
      gamma_[static_cast<std::size_t>(K - 1)], tau_.data(), gamma_e_.data(),
      term);
  return std::isfinite(total) ? total : kInf;
}

double DauweKernel::Cursor::finish_expected_time(
    double pattern) const noexcept {
  const double before_scratch = finish_top(pattern, nullptr);
  if (!std::isfinite(before_scratch)) return kInf;
  return kernel_->wrap_scratch(before_scratch);
}

double DauweKernel::recursion(double tau0, std::span<const int> counts,
                              DauweStageTerms* stages) const noexcept {
  const int K = static_cast<int>(level_.size());
  assert(K >= 1 && K <= systems::kMaxLevels);
  assert(static_cast<int>(counts.size()) == K - 1);

  // One cursor driven straight to the leaf: the per-plan path and the
  // optimizer's prefix-incremental sweep share every instruction.
  Cursor cur(*this);
  cur.begin(tau0);
  double pattern = 1.0;  // prod (N_k + 1) over interior levels
  for (int k = 0; k + 1 < K; ++k) {
    const int n = counts[static_cast<std::size_t>(k)];
    pattern *= static_cast<double>(n + 1);
    cur.push_stage(k, n, stages != nullptr ? stages + k : nullptr);
  }
  return cur.finish_top(pattern,
                        stages != nullptr ? stages + (K - 1) : nullptr);
}

double DauweKernel::wrap_scratch(double before_scratch) const noexcept {
  if (scratch_lambda_ <= 0.0) return before_scratch;
  if (scratch_law_ != nullptr) {
    const double reruns = scratch_law_->expected_retries(before_scratch);
    return before_scratch +
           reruns * scratch_law_->truncated_mean(before_scratch);
  }
  const double reruns = math::expected_retries(before_scratch, scratch_lambda_);
  return before_scratch +
         reruns * math::truncated_mean(before_scratch, scratch_lambda_);
}

double DauweKernel::expected_time(double tau0,
                                  std::span<const int> counts) const noexcept {
  const double before_scratch = recursion(tau0, counts, nullptr);
  if (!std::isfinite(before_scratch)) return kInf;
  return wrap_scratch(before_scratch);
}

Prediction DauweKernel::predict(const CheckpointPlan& plan) const {
  assert(plan.levels.size() == level_.size());
  const int K = plan.used_levels();
  std::array<DauweStageTerms, systems::kMaxLevels> stages{};
  const double before_scratch =
      recursion(plan.tau0, plan.counts, stages.data());

  Prediction p;
  if (!std::isfinite(before_scratch)) {
    p.expected_time = kInf;
    p.efficiency = 0.0;
    return p;
  }

  // Stage-k terms occur once per tau_{k+1} period; multiply by how many
  // such periods the run contains to total them.
  double occurrences = 1.0;  // periods of tau_{K} (the whole run): one
  ModelBreakdown& b = p.breakdown;
  b.compute = base_time_;
  for (int k = K - 1; k >= 0; --k) {
    const DauweStageTerms& t = stages[static_cast<std::size_t>(k)];
    b.checkpoint_ok += t.checkpoint_ok * occurrences;
    b.checkpoint_failed += t.checkpoint_failed * occurrences;
    b.restart_ok += t.restart_ok * occurrences;
    b.restart_failed += t.restart_failed * occurrences;
    b.rework_compute += t.rework_compute * occurrences;
    b.rework_checkpoint += t.rework_checkpoint * occurrences;
    occurrences *= t.multiplicity;
  }

  double total = before_scratch;
  if (scratch_lambda_ > 0.0) {
    if (scratch_law_ != nullptr) {
      b.scratch_rework = scratch_law_->expected_retries(before_scratch) *
                         scratch_law_->truncated_mean(before_scratch);
    } else {
      b.scratch_rework =
          math::expected_retries(before_scratch, scratch_lambda_) *
          math::truncated_mean(before_scratch, scratch_lambda_);
    }
    total += b.scratch_rework;
  }
  p.expected_time = total;
  p.efficiency = base_time_ / total;
  return p;
}

}  // namespace mlck::core
