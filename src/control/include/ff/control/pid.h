#pragma once

// Textbook discrete PID, unclamped and unfiltered (paper §III Eq. 2). The
// FrameFeedback controller runs this with Ki = 0 (Eq. 3) and clamps its
// output itself; the full-PID ablation turns Ki back on.

#include "ff/util/units.h"

namespace ff::control {

struct PidConfig {
  double kp{0.2};
  double ki{0.0};
  double kd{0.26};
};

class PidController {
 public:
  explicit PidController(PidConfig config);

  /// One control step. `dt` is the time since the previous step in the
  /// controller's own tick units (the paper uses 1 tick = 1 s). Returns
  /// the control action u.
  [[nodiscard]] double step(double error, double dt = 1.0);

  void reset();

  [[nodiscard]] const PidConfig& config() const { return config_; }
  [[nodiscard]] double integral() const { return integral_; }
  [[nodiscard]] double last_error() const { return last_error_; }

 private:
  PidConfig config_;
  double integral_{0.0};
  double last_error_{0.0};
  bool has_last_error_{false};
};

}  // namespace ff::control
