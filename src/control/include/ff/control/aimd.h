#pragma once

// AIMD (additive-increase/multiplicative-decrease) offload controller: a
// TCP-inspired comparison point beyond the paper's baselines, used by the
// ablation benches to show what the PD structure buys over the classic
// congestion-control reflex.

#include "ff/control/controller.h"

namespace ff::control {

class AimdController final : public Controller {
 public:
  [[nodiscard]] std::string_view name() const override { return "aimd"; }
  [[nodiscard]] SimDuration measure_period() const override { return kSecond; }
  [[nodiscard]] double update(const ControllerInput& input) override;
  void reset() override;

 private:
  double offload_rate_{0.0};
};

}  // namespace ff::control
