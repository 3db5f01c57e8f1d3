#pragma once

// The harness: runs disturbance scenarios, evaluates invariants, and on
// failure writes flight-recorder captures whose replay is verified against
// the original fingerprint before the capture is trusted.

#include <string>
#include <vector>

#include "ff/invariants/capture.h"
#include "ff/invariants/invariants.h"
#include "ff/invariants/scenario_suite.h"

namespace ff::invariants {

struct HarnessOptions {
  /// Measure wall-clock cost per simulator event (chunked, p99) and check
  /// it against its bound. Off by default in unit tests; on in the
  /// physics-CI bench.
  bool measure_event_cost{false};
  /// Directory for captures and traces; "" disables capture entirely
  /// (created on demand when needed).
  std::string capture_dir;
  /// Write a capture even when every invariant passes -- used by the
  /// replay ctest gate, which needs a capture from a green run.
  bool capture_all{false};
};

/// Runs one scenario end to end: experiment, invariant evaluation and --
/// when an invariant failed or capture_all is set -- a verification re-run
/// with tracing attached, whose fingerprint must reproduce the original
/// (ScenarioReport::replay_verified records that it did).
[[nodiscard]] ScenarioReport run_scenario(const DisturbanceScenario& scenario,
                                          const HarnessOptions& options = {});

/// Runs every scenario in order.
[[nodiscard]] std::vector<ScenarioReport> run_suite(
    const std::vector<DisturbanceScenario>& suite,
    const HarnessOptions& options = {});

}  // namespace ff::invariants
