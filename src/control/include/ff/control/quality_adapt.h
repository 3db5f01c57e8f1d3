#pragma once

// Quality-adapting FrameFeedback: implements the trade the paper discusses
// in §II-D but leaves unexploited -- "using lighter compression can
// improve accuracy [but] increases the number of bytes per frame".
//
// Strategy: run the stock FrameFeedback PD loop for the offload rate, and
// add a second, slower actuator on JPEG quality driven by the *network*
// component of the timeout rate:
//   - when Tn pressure forces the rate below Fs, step quality down the
//     ladder first (each step roughly halves bytes/frame), giving the PD
//     loop a cheaper frame to push through the same link;
//   - when the loop has held Po ~ Fs with no network timeouts for a few
//     periods, step quality back up (accuracy recovers).
// Load timeouts (Tl) never trigger quality changes: smaller frames do not
// help a saturated GPU.

#include "ff/control/frame_feedback.h"

namespace ff::control {

class QualityAdaptController final : public Controller {
 public:
  /// `rate` configures the inner PD loop.
  explicit QualityAdaptController(FrameFeedbackConfig rate = {});

  [[nodiscard]] std::string_view name() const override {
    return "quality-adapt";
  }
  [[nodiscard]] SimDuration measure_period() const override {
    return rate_controller_.measure_period();
  }
  [[nodiscard]] double update(const ControllerInput& input) override;
  [[nodiscard]] std::optional<int> frame_quality() const override;
  void reset() override;

  [[nodiscard]] std::size_t ladder_index() const { return ladder_index_; }

 private:
  FrameFeedbackController rate_controller_;
  std::size_t ladder_index_{0};
  int clean_streak_{0};
  int cooldown_{0};
};

}  // namespace ff::control
