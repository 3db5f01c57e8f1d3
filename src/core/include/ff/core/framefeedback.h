#pragma once

// Umbrella header: the full FrameFeedback public API.
//
//   #include <ff/core/framefeedback.h>
//
//   auto scenario = ff::core::Scenario::paper_network();
//   auto result = ff::core::run_experiment(
//       scenario,
//       ff::core::make_controller_factory<
//           ff::control::FrameFeedbackController>());

#include "ff/control/aimd.h"
#include "ff/control/baselines.h"
#include "ff/control/controller.h"
#include "ff/control/frame_feedback.h"
#include "ff/control/pid.h"
#include "ff/control/quality_adapt.h"
#include "ff/control/reservation_controller.h"
#include "ff/control/tuner.h"
#include "ff/core/experiment.h"
#include "ff/core/fleet_topology.h"
#include "ff/core/fleet_transport.h"
#include "ff/core/metrics.h"
#include "ff/core/networked_transport.h"
#include "ff/core/report.h"
#include "ff/core/scenario.h"
#include "ff/core/scenario_config.h"
#include "ff/device/edge_device.h"
#include "ff/models/device_profile.h"
#include "ff/models/frame.h"
#include "ff/models/latency_model.h"
#include "ff/models/model_spec.h"
#include "ff/models/power.h"
#include "ff/net/netem.h"
#include "ff/net/shared_medium.h"
#include "ff/net/transport.h"
#include "ff/server/edge_server.h"
#include "ff/server/load_generator.h"
#include "ff/server/reservation.h"
#include "ff/sim/simulator.h"
#include "ff/util/ascii_plot.h"
#include "ff/util/csv.h"
#include "ff/util/time_series.h"
