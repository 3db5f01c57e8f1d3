#pragma once

// Invariant evaluation over a finished run: declarative checks of the
// "physics" every healthy closed loop must obey, computed purely from the
// telemetry an ExperimentResult already carries. Each check reports the
// observed value against its bound so failures are diagnosable from the
// JSON summary alone.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/invariants/scenario_suite.h"

namespace ff::invariants {

/// One evaluated invariant: what was measured, what was allowed.
struct InvariantCheck {
  std::string name;
  bool passed{false};
  double observed{0.0};
  double bound{0.0};
  std::string detail;
};

/// Everything the harness learned from one scenario run.
struct ScenarioReport {
  std::string scenario;
  std::string controller;
  std::string description;
  std::uint64_t seed{0};
  std::uint64_t fingerprint{0};  ///< sweep::result_fingerprint of the run
  std::uint64_t events_executed{0};
  std::vector<InvariantCheck> checks;
  /// Flight-recorder capture written for this run ("" when none).
  std::string capture_path;
  /// True when the capture's verification re-run reproduced `fingerprint`
  /// bit-identically (only meaningful when a capture was written).
  bool replay_verified{false};

  [[nodiscard]] bool passed() const;
  /// Comma-separated names of failed checks ("" when all passed).
  [[nodiscard]] std::string failed_names() const;
};

/// Evaluates every invariant against a finished run of `scenario`, with
/// the bounds fixed in invariants.cpp. Pass `event_cost_p99_us < 0` when
/// per-event wall cost was not measured (the check is then omitted).
[[nodiscard]] std::vector<InvariantCheck> evaluate_invariants(
    const DisturbanceScenario& scenario, const core::ExperimentResult& result,
    double event_cost_p99_us = -1.0);

/// Machine-readable summary (INVARIANTS.json): suite verdict plus every
/// scenario's checks, fingerprints as hex strings.
void write_invariants_json(const std::vector<ScenarioReport>& reports,
                           std::ostream& os);
void write_invariants_json(const std::vector<ScenarioReport>& reports,
                           const std::string& path);

}  // namespace ff::invariants
