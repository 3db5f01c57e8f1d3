#pragma once

// The disturbance-scenario suite behind the invariants harness ("physics
// CI"): each entry pairs a controller with a scenario that injects one
// disturbance -- a loss burst, a bandwidth collapse, a server overload --
// inside an otherwise clean run, so closed-loop physics (frame
// conservation, bounded actuation flapping, post-disturbance convergence)
// can be checked against the telemetry the run produces.

#include <string>
#include <vector>

#include "ff/core/scenario.h"

namespace ff::invariants {

/// One named disturbance experiment: a scenario whose network or load
/// schedule departs from nominal inside [disturbance_start,
/// disturbance_end), plus the controller under test.
struct DisturbanceScenario {
  std::string name;
  std::string description;
  /// Controller name as accepted by core::controller_factory_from_config.
  std::string controller{"frame-feedback"};
  core::Scenario scenario;
  /// Window in which conditions are off-nominal. A start of 0 means the
  /// disturbance is present from the first frame (no clean baseline).
  SimTime disturbance_start{0};
  SimTime disturbance_end{0};
  /// When > 0, the harness re-runs the scenario with this partition count
  /// and adds a partition_fingerprint_equality check: the re-run's result
  /// fingerprint must equal the base run's bit-for-bit. Any base partition
  /// count works (0 is an alias for 1; every K gives one fingerprint).
  std::size_t compare_partitions{0};
};

/// The default suite: loss_burst, bandwidth_collapse, retry_storm,
/// server_overload, server_stall, device_churn, fleet_rebalance and
/// partition_determinism.
/// Every scenario is deterministic (fixed seed) so harness runs are
/// reproducible and replayable bit-for-bit.
[[nodiscard]] std::vector<DisturbanceScenario> default_suite();

/// Scenario with `name` from the default suite. Throws
/// std::invalid_argument listing known names when absent.
[[nodiscard]] DisturbanceScenario find_scenario(const std::string& name);

/// Comma-separated names of the default suite, for help text.
[[nodiscard]] std::string known_suite_names();

}  // namespace ff::invariants
