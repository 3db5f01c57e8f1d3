#include "ff/control/aimd.h"

#include <algorithm>

namespace ff::control {
namespace {

/// Additive step, as a fraction of Fs.
constexpr double kIncreaseFraction = 0.05;
/// Multiplicative back-off on timeouts.
constexpr double kDecreaseFactor = 0.5;
/// T at or below this fraction of Fs counts as a clean (timeout-free) period.
constexpr double kTimeoutToleranceFraction = 0.05;
/// Keep probing at this fraction of Fs.
constexpr double kFloorFraction = 0.03;

}  // namespace

double AimdController::update(const ControllerInput& input) {
  const double fs = input.source_fps;
  if (input.timeout_rate <= kTimeoutToleranceFraction * fs) {
    offload_rate_ += kIncreaseFraction * fs;
  } else {
    offload_rate_ *= kDecreaseFactor;
  }
  offload_rate_ = std::clamp(offload_rate_, kFloorFraction * fs, fs);
  return offload_rate_;
}

void AimdController::reset() { offload_rate_ = 0.0; }

}  // namespace ff::control
