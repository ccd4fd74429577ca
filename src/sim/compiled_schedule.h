#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "core/plan.h"
#include "systems/system_config.h"

namespace mlck::sim {

/// A checkpoint schedule precompiled for the simulator's segment loop.
///
/// The simulator only ever asks "what is the next trigger after work
/// position w?" from w = 0 or from the work position of a previously
/// returned trigger (every committed checkpoint sits at a trigger, and
/// every rollback restores one of those positions or scratch). That makes
/// the full trigger sequence of any *deterministic* schedule enumerable up
/// front by replaying its query function from 0: next(0) = T0,
/// next(T0) = T1, ... until it returns nullopt. Pattern plans and interval
/// schedules compile this way into a flat array with O(1) amortized
/// next-trigger lookup (a cursor hint plus a binary-search fallback for
/// rollbacks), replacing the per-segment std::function dispatch and
/// per-query grid arithmetic of the previous engine.
///
/// The compiled triggers are bit-identical to the dynamic responses by
/// construction — the replay *is* the dynamic query sequence — so
/// simulated trajectories are unchanged. Compilation falls back to
/// callback mode (keeping the schedule's query as a slow-path
/// std::function) when the trigger sequence is unbounded in practice
/// (more than kMaxTriggers points) or fails the strict-advance check that
/// the cursor's lookup relies on. Adaptive schedules always use callback
/// mode: their horizon rule is the designated slow path and keeps the
/// fallback exercised.
///
/// The schedule also carries the runner's checkpoint-validity table: the
/// simulator keeps one validity bit per used level, so every used level
/// index must lie below systems::kMaxLevels (the factories throw
/// std::invalid_argument naming kMaxLevels otherwise).
///
/// A CompiledSchedule is immutable after construction and safe to share
/// across threads; each runner carries its own Cursor.
class CompiledSchedule {
 public:
  using Fallback =
      std::function<std::optional<core::CheckpointPoint>(double work)>;

  /// One bit per used level: bit k stands for levels()[k].
  using LevelMask = std::uint32_t;
  static_assert(systems::kMaxLevels < 32, "LevelMask holds one bit per level");

  /// Compilation cap: a schedule emitting more triggers than this for one
  /// run stays in callback mode (bounded memory; such schedules are
  /// pathological — sub-second checkpoint periods on week-long runs).
  static constexpr std::size_t kMaxTriggers = std::size_t{1} << 18;

  /// Compiles an SCR pattern plan (validates it against @p system first).
  static CompiledSchedule from_plan(const systems::SystemConfig& system,
                                    const core::CheckpointPlan& plan);

  /// Compiles an interval schedule (validates it against @p system first).
  static CompiledSchedule from_schedule(const systems::SystemConfig& system,
                                        const core::IntervalSchedule& schedule);

  /// Wraps an adaptive schedule in callback mode (validates the base plan).
  static CompiledSchedule from_adaptive(const systems::SystemConfig& system,
                                        const core::AdaptiveSchedule& schedule);

  /// Ascending, unique system level indices in use.
  const std::vector<int>& levels() const noexcept { return levels_; }

  /// Used levels whose checkpoint storage survives a severity-@p severity
  /// failure: bit k is set iff levels()[k] >= severity. A failure wipes
  /// storage below its severity, so this is the AND mask that applies it.
  LevelMask survivors(int severity) const noexcept {
    return survivors_[static_cast<std::size_t>(
        std::clamp(severity, 0, systems::kMaxLevels))];
  }

  /// True when the trigger array is in use (false = callback mode).
  bool compiled() const noexcept { return use_triggers_; }

  /// Number of precompiled triggers (0 in callback mode).
  std::size_t trigger_count() const noexcept { return triggers_.size(); }

  /// The precompiled trigger array (empty in callback mode). Exposed for
  /// the batch fast-forward precompute (sim/fast_forward.h), which walks
  /// the same triggers the cursor serves.
  const std::vector<core::CheckpointPoint>& triggers() const noexcept {
    return triggers_;
  }

  /// Per-runner lookup state. Copyable and cheap; create one per trial via
  /// cursor(). Not thread-safe (use one per runner), but any number of
  /// cursors may read the same CompiledSchedule concurrently.
  class Cursor {
   public:
    explicit Cursor(const CompiledSchedule* schedule) noexcept
        : schedule_(schedule) {}

    /// Next trigger strictly after @p work (kWorkEpsilon tolerance), or
    /// nullopt when the application would finish first. O(1) on the
    /// forward path (committed checkpoint -> next trigger) and, for
    /// uniform grids (every plan), O(1) after a rollback too — the index
    /// is recomputed arithmetically, the same floor the dynamic engine
    /// did per query. Non-uniform grids fall back to O(log n).
    std::optional<core::CheckpointPoint> next(double work) {
      if (!schedule_->use_triggers_) return schedule_->fallback_(work);
      const auto& trig = schedule_->triggers_;
      const double limit = work + core::IntervalSchedule::kWorkEpsilon;
      std::size_t i = hint_;
      if (!index_valid(i, limit)) {
        if (const double tau0 = schedule_->uniform_tau0_; tau0 > 0.0) {
          // Triggers sit at (i + 1) * tau0; rollbacks restore one of those
          // works (or scratch), so the quotient lands on the index
          // directly. Validated, with the search as the safety net for
          // any floating-point edge.
          i = static_cast<std::size_t>(limit / tau0);
          if (!index_valid(i, limit)) i = schedule_->lower_index(limit);
        } else {
          i = schedule_->lower_index(limit);
        }
      }
      if (i == trig.size()) {
        hint_ = i;
        return std::nullopt;
      }
      hint_ = i + 1;
      return trig[i];
    }

   private:
    /// True when @p i is exactly the first index with work > @p limit.
    bool index_valid(std::size_t i, double limit) const noexcept {
      const auto& trig = schedule_->triggers_;
      return i <= trig.size() && (i == 0 || trig[i - 1].work <= limit) &&
             (i == trig.size() || trig[i].work > limit);
    }

    const CompiledSchedule* schedule_;
    std::size_t hint_ = 0;
  };

  Cursor cursor() const noexcept { return Cursor(this); }

 private:
  /// Takes the used levels and precomputes survivors_; throws
  /// std::invalid_argument naming kMaxLevels when a used level index does
  /// not fit the per-level bit and slot arrays.
  explicit CompiledSchedule(std::vector<int> levels);

  /// Replays @p next from work 0 into the trigger array; on overflow or a
  /// non-advancing sequence leaves the schedule in callback mode.
  void compile(const Fallback& next);

  /// Sets uniform_tau0_ when every trigger sits bitwise at
  /// (i + 1) * triggers_[0].work.
  void detect_uniform_grid();

  /// First trigger index with work > @p limit (binary search).
  std::size_t lower_index(double limit) const noexcept;

  std::vector<core::CheckpointPoint> triggers_;
  std::vector<int> levels_;
  /// survivors_[s] for s in [0, kMaxLevels]; every used level is below
  /// kMaxLevels, so the last entry is 0 and deeper severities clamp to it.
  std::array<LevelMask, systems::kMaxLevels + 1> survivors_{};
  Fallback fallback_;
  bool use_triggers_ = false;
  /// Grid period when trigger i sits exactly at (i + 1) * uniform_tau0_
  /// (bitwise, checked at compile time); 0 otherwise. Enables the
  /// cursor's O(1) arithmetic rollback recovery.
  double uniform_tau0_ = 0.0;
};

}  // namespace mlck::sim
