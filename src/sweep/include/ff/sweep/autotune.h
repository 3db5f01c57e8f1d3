#pragma once

// Automatic gain search. The paper tunes (Kp, Kd) by hand because
// Ziegler-Nichols does not apply to the piecewise PV (§III-B); here the
// manual procedure is mechanized: run the tuning scenario over a gain
// grid (a sweep with one controller variant per pair), score each
// response for rise time, overshoot, steady oscillation and
// post-disturbance behaviour, and return the best pair. Used by
// bench/autotune to check that an objective search lands near the
// paper's shipped (0.2, 0.26).

#include <vector>

#include "ff/control/tuner.h"
#include "ff/core/scenario.h"

namespace ff::sweep {

struct AutoTuneConfig {
  /// Scenario to evaluate on; must contain exactly one device. The
  /// default is the paper's Fig. 2 setup (loss injected at 27 s, where
  /// autotune.cpp splits the scoring windows).
  core::Scenario scenario{core::Scenario::paper_tuning()};
  std::vector<double> kp_grid{0.05, 0.1, 0.2, 0.4, 0.8};
  std::vector<double> kd_grid{0.0, 0.13, 0.26, 0.52};
  /// Worker threads for the sweep (0 = shared pool, 1 = serial).
  std::size_t threads{0};
};

struct GainScore {
  double kp{0.0};
  double kd{0.0};
  control::ResponseMetrics clean{};      ///< before the disturbance
  control::ResponseMetrics disturbed{};  ///< after it
  double score{0.0};                     ///< lower is better
  double mean_throughput{0.0};
};

struct AutoTuneResult {
  GainScore best{};
  std::vector<GainScore> all;  ///< grid order (kp-major)
};

/// Runs the grid as a sweep (SeedMode::kScenario, so every pair sees the
/// scenario's own seed). Throws std::invalid_argument on an empty grid
/// or a scenario without exactly one device.
[[nodiscard]] AutoTuneResult auto_tune(const AutoTuneConfig& config);

}  // namespace ff::sweep
