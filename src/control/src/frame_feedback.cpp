#include "ff/control/frame_feedback.h"

#include <algorithm>

namespace ff::control {
namespace {

/// The "10% of Fs" knee of Eq. 5.
constexpr double kTimeoutSetpointFraction = 0.1;
/// T at or below this (frames/s) counts as "T == 0" in the piecewise PV.
constexpr double kTimeoutEpsilon = 1e-9;

[[nodiscard]] PidConfig to_pid_config(const FrameFeedbackConfig& c) {
  PidConfig p;
  p.kp = c.kp;
  p.ki = c.ki;
  p.kd = c.kd;
  // Output clamping is applied in update() because the bounds scale with
  // Fs, which arrives with the input; the PID itself is unclamped.
  return p;
}

}  // namespace

FrameFeedbackController::FrameFeedbackController(FrameFeedbackConfig config)
    : config_(config),
      pid_(to_pid_config(config)),
      offload_rate_(std::max(config.initial_offload_rate, 0.0)) {}

double FrameFeedbackController::update(const ControllerInput& input) {
  const double fs = input.source_fps;
  const double t = input.timeout_rate;

  // Piecewise error (Eq. 5). Note it is computed from the *commanded* Po,
  // matching the paper: the controller regulates its own target.
  const double error = (t <= kTimeoutEpsilon)
                           ? fs - offload_rate_
                           : kTimeoutSetpointFraction * fs - t;
  last_error_ = error;

  // dt in measurement periods: the discrete controller treats one tick as
  // one unit, as in the paper's tuning.
  double u = pid_.step(error, 1.0);
  if (config_.clamp_updates) {
    u = std::clamp(u, config_.update_min_fraction * fs,
                   kUpdateMaxFraction * fs);
  }
  last_update_ = u;

  offload_rate_ = std::clamp(offload_rate_ + u, 0.0, fs);
  return offload_rate_;
}

void FrameFeedbackController::reset() {
  pid_.reset();
  offload_rate_ = std::max(config_.initial_offload_rate, 0.0);
  last_error_ = 0.0;
  last_update_ = 0.0;
}

}  // namespace ff::control
