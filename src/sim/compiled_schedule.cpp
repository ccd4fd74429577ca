#include "sim/compiled_schedule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mlck::sim {

CompiledSchedule::CompiledSchedule(std::vector<int> levels)
    : levels_(std::move(levels)) {
  // Used levels are validated ascending, so the last is the deepest.
  if (!levels_.empty() && levels_.back() >= systems::kMaxLevels) {
    throw std::invalid_argument(
        "CompiledSchedule: used levels must lie below kMaxLevels (" +
        std::to_string(systems::kMaxLevels) + "); got " +
        std::to_string(levels_.size()) + " levels up to level " +
        std::to_string(levels_.back()));
  }
  for (std::size_t s = 0; s < survivors_.size(); ++s) {
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      if (levels_[k] >= static_cast<int>(s)) survivors_[s] |= LevelMask{1} << k;
    }
  }
}

void CompiledSchedule::compile(const Fallback& next) {
  triggers_.clear();
  double work = 0.0;
  for (;;) {
    const auto point = next(work);
    if (!point) {
      use_triggers_ = true;
      return;
    }
    // The cursor's lookup needs every trigger strictly beyond the previous
    // one's epsilon neighbourhood; a schedule violating that (periods at
    // or below kWorkEpsilon) stays on the callback, which reproduces the
    // dynamic engine's behaviour for it exactly.
    if (point->work <= work + core::IntervalSchedule::kWorkEpsilon ||
        triggers_.size() >= kMaxTriggers) {
      triggers_.clear();
      use_triggers_ = false;
      return;
    }
    triggers_.push_back(*point);
    work = point->work;
  }
}

void CompiledSchedule::detect_uniform_grid() {
  uniform_tau0_ = 0.0;
  if (!use_triggers_ || triggers_.empty()) return;
  const double tau0 = triggers_.front().work;
  if (!(tau0 > 0.0)) return;
  for (std::size_t i = 0; i < triggers_.size(); ++i) {
    // Bitwise equality on purpose: the cursor's arithmetic recovery
    // reproduces exactly (i + 1) * tau0, so any grid that is merely
    // *close* to uniform must keep the binary-search path.
    if (triggers_[i].work != static_cast<double>(i + 1) * tau0) return;
  }
  uniform_tau0_ = tau0;
}

std::size_t CompiledSchedule::lower_index(double limit) const noexcept {
  const auto it = std::upper_bound(
      triggers_.begin(), triggers_.end(), limit,
      [](double value, const core::CheckpointPoint& t) {
        return value < t.work;
      });
  return static_cast<std::size_t>(it - triggers_.begin());
}

CompiledSchedule CompiledSchedule::from_plan(
    const systems::SystemConfig& system, const core::CheckpointPlan& plan) {
  plan.validate(system);
  CompiledSchedule out(plan.levels);
  const double base_time = system.base_time;
  // Same arithmetic the dynamic engine used per query: checkpoints sit at
  // integer multiples of tau0, the pattern decides the level, and no
  // checkpoint is taken at or beyond completion.
  out.fallback_ = [plan, base_time](
                      double work) -> std::optional<core::CheckpointPoint> {
    const double j =
        std::floor((work + core::IntervalSchedule::kWorkEpsilon) / plan.tau0) +
        1.0;
    const double point = j * plan.tau0;
    if (point >= base_time - core::IntervalSchedule::kWorkEpsilon) {
      return std::nullopt;
    }
    return core::CheckpointPoint{
        point, plan.checkpoint_after_interval(static_cast<long long>(j))};
  };
  out.compile(out.fallback_);
  out.detect_uniform_grid();
  return out;
}

CompiledSchedule CompiledSchedule::from_schedule(
    const systems::SystemConfig& system,
    const core::IntervalSchedule& schedule) {
  schedule.validate(system);
  CompiledSchedule out(schedule.levels);
  const double base_time = system.base_time;
  out.fallback_ = [schedule, base_time](double work) {
    return schedule.next_checkpoint(work, base_time);
  };
  out.compile(out.fallback_);
  out.detect_uniform_grid();
  return out;
}

CompiledSchedule CompiledSchedule::from_adaptive(
    const systems::SystemConfig& system,
    const core::AdaptiveSchedule& schedule) {
  schedule.base.validate(system);
  CompiledSchedule out(schedule.base.levels);
  // Callback mode by design: the horizon rule is the designated slow path
  // and keeps the fallback branch exercised by every adaptive test.
  out.fallback_ = [schedule](double work) {
    return schedule.next_checkpoint(work);
  };
  return out;
}

}  // namespace mlck::sim
