#include "ff/control/quality_adapt.h"

#include <array>

namespace ff::control {
namespace {

/// Quality ladder, best first. The steps roughly halve bytes/frame.
constexpr std::array<int, 4> kQualityLadder{85, 70, 55, 40};
/// Step down when Tn exceeds this fraction of Fs.
constexpr double kDegradeTnFraction = 0.1;
/// Step up after this many consecutive clean periods at Po >= this
/// fraction of Fs.
constexpr int kUpgradeAfterCleanPeriods = 5;
constexpr double kUpgradePoFraction = 0.9;
/// Cooldown periods between any two quality changes (let the rate loop
/// see the new operating point before moving again).
constexpr int kCooldownPeriods = 3;

}  // namespace

QualityAdaptController::QualityAdaptController(FrameFeedbackConfig rate)
    : rate_controller_(rate) {}

double QualityAdaptController::update(const ControllerInput& input) {
  const double fs = input.source_fps;

  if (cooldown_ > 0) --cooldown_;

  const bool network_pressure =
      input.network_timeout_rate > kDegradeTnFraction * fs;
  const bool clean = input.network_timeout_rate <= 1e-9;

  if (network_pressure) {
    clean_streak_ = 0;
    if (cooldown_ == 0 && ladder_index_ + 1 < kQualityLadder.size()) {
      ++ladder_index_;
      cooldown_ = kCooldownPeriods;
    }
  } else if (clean && input.offload_rate >= kUpgradePoFraction * fs) {
    ++clean_streak_;
    if (cooldown_ == 0 && ladder_index_ > 0 &&
        clean_streak_ >= kUpgradeAfterCleanPeriods) {
      --ladder_index_;
      clean_streak_ = 0;
      cooldown_ = kCooldownPeriods;
    }
  } else {
    clean_streak_ = 0;
  }

  return rate_controller_.update(input);
}

std::optional<int> QualityAdaptController::frame_quality() const {
  return kQualityLadder[ladder_index_];
}

void QualityAdaptController::reset() {
  rate_controller_.reset();
  ladder_index_ = 0;
  clean_streak_ = 0;
  cooldown_ = 0;
}

}  // namespace ff::control
