#pragma once

// Builds scenarios and controller factories from key=value configuration
// (command line or file), so experiments can be driven without writing
// C++ -- the `ffctl` example is a thin wrapper over this.
//
// Keys (all optional; config_keys() lists them for
// Config::reject_unknown_keys):
//   scenario           ideal | paper_network | paper_server_load |
//                      paper_tuning | paper_combined | mixed_models
//   seed               uint
//   duration_s         double
//   shared_medium      bool
//   bandwidth_unit_mbps  double      (paper_network / paper_combined)
//   devices            int          (replicate the first device)
//   device.profile     pi3b | pi4b_r12 | pi4b_r14
//   device.model       mobilenet_v3_small | ... (see parse_model)
//   device.fps         double
//   device.deadline_ms double
//   device.frame_limit uint
//   device.width / device.height / device.quality   int
//   net.bandwidth_mbps double       (overrides with constant conditions)
//   net.loss           double
//   net.delay_ms       double
//   load.rate          double       (constant background req/s)
//   medium_groups / partitions / partition_threads   int
//   fleet.servers      int          (M uniform servers, round-robin)
//   fleet.admission.policy          none | token-bucket | queue-depth
//   fleet.admission.rate / .burst   double
//   fleet.admission.queue_limit     int
//
//   controller         frame-feedback | local-only | always-offload |
//                      all-or-nothing | aimd | quality-adapt | fixed |
//                      reservation
//   controller.kp / controller.kd / controller.ki   double
//   controller.rate    double       (fixed)
//   controller.capacity_fps         double (reservation)

#include <string>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/core/scenario.h"
#include "ff/util/config.h"

namespace ff::core {

/// Builds a scenario from configuration. Throws std::invalid_argument on
/// an unknown `scenario`, `device.profile` or `device.model` value.
[[nodiscard]] Scenario scenario_from_config(const Config& config);

/// Builds a controller factory from configuration. The returned factory
/// owns any shared state it needs (e.g. the reservation manager). Throws
/// std::invalid_argument on an unknown `controller` value.
[[nodiscard]] ControllerFactory controller_factory_from_config(
    const Config& config);

/// Every key scenario_from_config and controller_factory_from_config read,
/// for Config::reject_unknown_keys (callers append their own keys).
[[nodiscard]] std::vector<std::string> config_keys();

/// Names accepted for `controller`, for help text.
[[nodiscard]] std::string known_controller_names();

/// Names accepted for `scenario`, for help text.
[[nodiscard]] std::string known_scenario_names();

}  // namespace ff::core
