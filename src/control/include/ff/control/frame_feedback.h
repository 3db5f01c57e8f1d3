#pragma once

// The FrameFeedback controller (paper §III): a PD controller on a
// piecewise process variable,
//
//   PV = Po            when T == 0        SP = Fs
//   PV = T + 0.9*Fs    when T  > 0
//
// giving the piecewise-linear error of Eq. 5:
//
//   e = Fs - Po        when T == 0   (push offloading toward Fs)
//   e = 0.1*Fs - T     when T  > 0   (back off when timeouts top 10% of Fs)
//
// with asymmetric update clamping (Table IV): aggressive downward
// (-0.5*Fs) and cautious upward (+0.1*Fs). Under total offload failure the
// equilibrium is Po = 0.1*Fs, a standing probe of offload availability.

#include "ff/control/controller.h"
#include "ff/control/pid.h"

namespace ff::control {

struct FrameFeedbackConfig {
  double kp{0.2};                    ///< Table IV
  double kd{0.26};                   ///< Table IV
  double ki{0.0};                    ///< Eq. 3 drops the integral term
  double update_min_fraction{-0.5};  ///< min u, as a fraction of Fs
  SimDuration measure_period{kSecond};  ///< Table IV: 1 s
  double initial_offload_rate{0.0};
  /// When false, u is not clamped (Fig. 2 ablation knob).
  bool clamp_updates{true};
};

class FrameFeedbackController final : public Controller {
 public:
  /// Max u, as a fraction of Fs (Table IV); the min is configurable.
  static constexpr double kUpdateMaxFraction = 0.1;

  explicit FrameFeedbackController(FrameFeedbackConfig config = {});

  [[nodiscard]] std::string_view name() const override {
    return "frame-feedback";
  }
  [[nodiscard]] SimDuration measure_period() const override {
    return config_.measure_period;
  }
  [[nodiscard]] double update(const ControllerInput& input) override;
  void reset() override;

  [[nodiscard]] const FrameFeedbackConfig& config() const { return config_; }

  /// Most recent error value e(t) (for tracing/tests).
  [[nodiscard]] double last_error() const { return last_error_; }

  /// Most recent clamped control action u(t).
  [[nodiscard]] double last_update() const { return last_update_; }

 private:
  FrameFeedbackConfig config_;
  PidController pid_;
  double offload_rate_;
  double last_error_{0.0};
  double last_update_{0.0};
};

}  // namespace ff::control
