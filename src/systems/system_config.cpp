#include "systems/system_config.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mlck::systems {

double SystemConfig::lambda_cumulative(int level) const noexcept {
  double sum = 0.0;
  for (int j = 0; j <= level; ++j) sum += lambda(j);
  return sum;
}

void SystemConfig::validate() const {
  if (mtbf <= 0.0) throw std::invalid_argument(name + ": MTBF must be > 0");
  if (base_time <= 0.0) {
    throw std::invalid_argument(name + ": base_time must be > 0");
  }
  const auto n = severity_probability.size();
  if (n == 0) throw std::invalid_argument(name + ": no checkpoint levels");
  if (n > static_cast<std::size_t>(kMaxLevels)) {
    throw std::invalid_argument(name + ": has " + std::to_string(n) +
                                " checkpoint levels, more than kMaxLevels (" +
                                std::to_string(kMaxLevels) + ")");
  }
  if (checkpoint_cost.size() != n || restart_cost.size() != n) {
    throw std::invalid_argument(name + ": per-level vectors disagree on L");
  }
  double total = 0.0;
  for (const double s : severity_probability) {
    if (s < 0.0) {
      throw std::invalid_argument(name + ": negative severity probability");
    }
    total += s;
  }
  if (std::abs(total - 1.0) > 1e-3) {
    throw std::invalid_argument(name +
                                ": severity probabilities must sum to 1");
  }
  for (const double c : checkpoint_cost) {
    if (c < 0.0) throw std::invalid_argument(name + ": negative ckpt cost");
  }
  for (const double r : restart_cost) {
    if (r < 0.0) throw std::invalid_argument(name + ": negative restart cost");
  }
}

SystemConfig SystemConfig::from_table_row(
    std::string name, int levels, double mtbf_minutes,
    std::vector<double> severity_probability,
    std::vector<double> cr_cost_minutes, double base_time_minutes) {
  SystemConfig cfg;
  cfg.name = std::move(name);
  cfg.mtbf = mtbf_minutes;
  cfg.severity_probability = std::move(severity_probability);
  cfg.checkpoint_cost = cr_cost_minutes;
  cfg.restart_cost = std::move(cr_cost_minutes);
  cfg.base_time = base_time_minutes;
  if (cfg.levels() != levels) {
    throw std::invalid_argument(cfg.name + ": level count mismatch");
  }
  cfg.validate();
  return cfg;
}

}  // namespace mlck::systems
