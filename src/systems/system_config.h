#pragma once

#include <string>
#include <vector>

namespace mlck::systems {

/// Deepest checkpoint hierarchy the models accept: the recursions keep
/// their per-level stage state in fixed arrays of this size on the stack,
/// and SystemConfig::validate() rejects deeper systems.
inline constexpr int kMaxLevels = 16;

/// Description of an HPC platform + application pair as used throughout
/// the paper: a multilevel checkpoint hierarchy with per-severity failure
/// rates, per-level checkpoint/restart costs, and the application's
/// failure-free ("baseline") execution time.
///
/// All times are in minutes (the unit of the paper's Table I).
///
/// Levels are indexed 0..levels()-1 in code; level k here is "level k+1"
/// in the paper. A *severity-k* failure destroys checkpoint data held at
/// levels below k and requires a restart from a checkpoint of level >= k
/// (paper Sec. III-B). The usual hierarchy has severity_probability
/// decreasing-ish and costs increasing with level, but neither is required
/// (Table I system M has most failures at severity 2).
struct SystemConfig {
  std::string name;

  /// System mean time between failures, minutes; the total failure rate
  /// across all severities is 1 / mtbf.
  double mtbf = 0.0;

  /// S_i: probability that a failure has severity i. Must sum to ~1.
  std::vector<double> severity_probability;

  /// delta_i: time to write a level-i checkpoint. Per the SCR protocol a
  /// level-i checkpoint subsumes writing all lower levels, and these costs
  /// already include that (paper Sec. II-B).
  std::vector<double> checkpoint_cost;

  /// R_i: time to restart from a level-i checkpoint. Table I systems use
  /// R_i == delta_i as in prior work.
  std::vector<double> restart_cost;

  /// T_B: failure-free application execution time.
  double base_time = 0.0;

  /// Number of checkpoint levels L.
  int levels() const noexcept {
    return static_cast<int>(severity_probability.size());
  }

  /// Total failure rate lambda = 1 / MTBF (all severities).
  double lambda_total() const noexcept { return 1.0 / mtbf; }

  /// lambda_i = S_i * lambda: rate of severity-i failures (level 0-based).
  double lambda(int level) const noexcept {
    return severity_probability[static_cast<std::size_t>(level)] /
           mtbf;
  }

  /// Sum of lambda_j for j <= level: the rate of every failure a level
  /// <= `level` interval must account for (the paper's lambda_c).
  double lambda_cumulative(int level) const noexcept;

  /// Throws std::invalid_argument when the configuration is malformed
  /// (size mismatches, more than kMaxLevels levels, non-positive MTBF/base
  /// time, negative costs, severity probabilities not summing to ~1).
  void validate() const;

  /// Convenience constructor mirroring a Table I row: checkpoint and
  /// restart costs equal.
  static SystemConfig from_table_row(std::string name, int levels,
                                     double mtbf_minutes,
                                     std::vector<double> severity_probability,
                                     std::vector<double> cr_cost_minutes,
                                     double base_time_minutes);
};

}  // namespace mlck::systems
