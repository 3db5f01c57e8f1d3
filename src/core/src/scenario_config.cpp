#include "ff/core/scenario_config.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "ff/control/aimd.h"
#include "ff/control/baselines.h"
#include "ff/control/frame_feedback.h"
#include "ff/control/quality_adapt.h"
#include "ff/control/reservation_controller.h"
#include "ff/models/model_spec.h"
#include "ff/server/reservation.h"

namespace ff::core {
namespace {

[[nodiscard]] Scenario base_scenario(const std::string& name,
                                     const Config& config) {
  const auto unit =
      Bandwidth::mbps(config.get_double("bandwidth_unit_mbps", 1.0));
  if (name == "ideal") return Scenario::ideal();
  if (name == "paper_network") return Scenario::paper_network(unit);
  if (name == "paper_server_load") return Scenario::paper_server_load();
  if (name == "paper_tuning") return Scenario::paper_tuning();
  if (name == "paper_combined") return Scenario::paper_combined(unit);
  if (name == "mixed_models") return Scenario::mixed_models();
  throw std::invalid_argument("unknown scenario '" + name + "'; known: " +
                              known_scenario_names());
}

/// `key`, a time in units of 1/`per_second` s, as a SimDuration. NaN,
/// infinities and times beyond ~31 years have no SimDuration (the cast
/// would be undefined), so they are rejected here, naming the key; sign
/// rules are Scenario::validate()'s.
[[nodiscard]] SimDuration get_duration(const Config& config,
                                       const std::string& key,
                                       double per_second) {
  const double seconds = config.get_double(key, 0.0) / per_second;
  if (!(std::abs(seconds) < 1e9)) {
    throw std::invalid_argument("Config: " + key + "=" +
                                config.get_string(key, "") +
                                " is not a valid duration");
  }
  return seconds_to_sim(seconds);
}

/// `key` as an integer in [lo, hi], or `fallback` when absent. A value
/// outside the range throws naming the key and the range, so it can
/// neither wrap in a narrowing cast nor be clamped into a different
/// experiment; semantic ranges stay Scenario::validate()'s.
[[nodiscard]] std::int64_t get_int_in(const Config& config,
                                      const std::string& key,
                                      std::int64_t fallback, std::int64_t lo,
                                      std::int64_t hi) {
  const std::int64_t value = config.get_int(key, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument("Config: " + key + "=" +
                                config.get_string(key, "") + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

}  // namespace

std::string known_scenario_names() {
  return "ideal, paper_network, paper_server_load, paper_tuning, "
         "paper_combined, mixed_models";
}

std::vector<std::string> config_keys() {
  return {"scenario",
          "bandwidth_unit_mbps",
          "seed",
          "duration_s",
          "shared_medium",
          "medium_groups",
          "partitions",
          "partition_threads",
          "devices",
          "device.profile",
          "device.model",
          "device.fps",
          "device.deadline_ms",
          "device.frame_limit",
          "device.width",
          "device.height",
          "device.quality",
          "net.bandwidth_mbps",
          "net.loss",
          "net.delay_ms",
          "load.rate",
          "fleet.servers",
          "fleet.admission.policy",
          "fleet.admission.rate",
          "fleet.admission.burst",
          "fleet.admission.queue_limit",
          "controller",
          "controller.kp",
          "controller.kd",
          "controller.ki",
          "controller.rate",
          "controller.capacity_fps"};
}

std::string known_controller_names() {
  return "frame-feedback, local-only, always-offload, all-or-nothing, aimd, "
         "quality-adapt, fixed, reservation";
}

Scenario scenario_from_config(const Config& config) {
  Scenario s =
      base_scenario(config.get_string("scenario", "ideal"), config);

  s.seed = static_cast<std::uint64_t>(
      config.get_int("seed", static_cast<std::int64_t>(s.seed)));
  if (config.has("duration_s")) {
    s.duration = get_duration(config, "duration_s", 1.0);
  }
  s.shared_uplink_medium = config.get_bool("shared_medium",
                                           s.shared_uplink_medium);
  s.uplink_medium_groups = static_cast<std::size_t>(get_int_in(
      config, "medium_groups",
      static_cast<std::int64_t>(s.uplink_medium_groups), 1, kInt64Max));
  s.partitions = static_cast<std::size_t>(
      get_int_in(config, "partitions",
                 static_cast<std::int64_t>(s.partitions), 0, kInt64Max));
  s.partition_threads = static_cast<unsigned>(
      get_int_in(config, "partition_threads", s.partition_threads, 0,
                 std::numeric_limits<unsigned>::max()));

  // Device overrides apply to every device; `devices` replicates the
  // first device to the requested count.
  if (config.has("devices")) {
    const std::int64_t count = config.get_int("devices", 1);
    if (count < 1) {
      throw std::invalid_argument("Config: devices=" +
                                  config.get_string("devices", "") +
                                  " must be >= 1");
    }
    const auto n = static_cast<std::size_t>(count);
    const device::DeviceConfig proto = s.devices.at(0);
    s.devices.clear();
    for (std::size_t i = 0; i < n; ++i) {
      device::DeviceConfig d = proto;
      d.name = proto.name + "-" + std::to_string(i);
      s.devices.push_back(std::move(d));
    }
  }
  for (auto& d : s.devices) {
    if (const auto p = config.get("device.profile")) {
      d.profile = models::parse_device(*p);
    }
    if (const auto m = config.get("device.model")) {
      d.model = models::parse_model(*m);
    }
    d.source_fps = config.get_double("device.fps", d.source_fps);
    if (config.has("device.deadline_ms")) {
      d.deadline = get_duration(config, "device.deadline_ms", 1000.0);
    }
    d.frame_limit = static_cast<std::uint64_t>(
        get_int_in(config, "device.frame_limit",
                   static_cast<std::int64_t>(d.frame_limit), 0, kInt64Max));
    d.frame.width = static_cast<int>(
        get_int_in(config, "device.width", d.frame.width, kIntMin, kIntMax));
    d.frame.height = static_cast<int>(get_int_in(
        config, "device.height", d.frame.height, kIntMin, kIntMax));
    d.frame.jpeg_quality = static_cast<int>(get_int_in(
        config, "device.quality", d.frame.jpeg_quality, kIntMin, kIntMax));
  }

  // Constant network override.
  if (config.has("net.bandwidth_mbps") || config.has("net.loss") ||
      config.has("net.delay_ms")) {
    net::LinkConditions c;
    c.bandwidth = Bandwidth::mbps(config.get_double("net.bandwidth_mbps",
                                                    10.0));
    c.loss_probability = config.get_double("net.loss", 0.0);
    if (config.has("net.delay_ms")) {
      c.propagation_delay = get_duration(config, "net.delay_ms", 1000.0);
    }
    s.network = net::NetemSchedule::constant(c);
    s.uplink_template.initial = c;
    s.downlink_template.initial = c;
  }

  if (config.has("load.rate")) {
    s.background_load =
        server::LoadSchedule::constant(Rate{config.get_double("load.rate",
                                                              0.0)});
    s.background.payload = models::frame_bytes({});
  }

  // Fleet topology: `fleet.servers` replicates the scenario's server
  // profile (and its background load) M ways. Unhinted devices place
  // round-robin; richer policies (ff::fleet) attach programmatically via
  // Scenario::fleet.placement.
  if (config.has("fleet.servers")) {
    const auto m = static_cast<std::size_t>(
        get_int_in(config, "fleet.servers", 1, 1, kInt64Max));
    s.fleet = FleetTopology::uniform(s.server, m);
    for (auto& spec : s.fleet.servers) {
      spec.background_load = s.background_load;
      spec.background = s.background;
    }
  }
  // Range-checked even without a policy, so a bad value never passes.
  server::AdmissionConfig ac;
  ac.max_queue_depth = static_cast<std::size_t>(
      get_int_in(config, "fleet.admission.queue_limit",
                 static_cast<std::int64_t>(ac.max_queue_depth), 1, kInt64Max));
  if (const auto policy = config.get("fleet.admission.policy")) {
    if (*policy == "none") {
      ac.policy = server::AdmissionPolicy::kNone;
    } else if (*policy == "token-bucket") {
      ac.policy = server::AdmissionPolicy::kTokenBucket;
    } else if (*policy == "queue-depth") {
      ac.policy = server::AdmissionPolicy::kQueueDepth;
    } else {
      throw std::invalid_argument(
          "unknown fleet.admission.policy '" + *policy +
          "'; known: none, token-bucket, queue-depth");
    }
    ac.rate_fps = config.get_double("fleet.admission.rate", ac.rate_fps);
    ac.burst = config.get_double("fleet.admission.burst", ac.burst);
    s.server.admission = ac;
    for (auto& spec : s.fleet.servers) spec.config.admission = ac;
  }

  return s;
}

ControllerFactory controller_factory_from_config(const Config& config) {
  const std::string name = config.get_string("controller", "frame-feedback");

  if (name == "frame-feedback" || name == "quality-adapt") {
    control::FrameFeedbackConfig ff;
    ff.kp = config.get_double("controller.kp", ff.kp);
    ff.kd = config.get_double("controller.kd", ff.kd);
    ff.ki = config.get_double("controller.ki", ff.ki);
    if (name == "frame-feedback") {
      return make_controller_factory<control::FrameFeedbackController>(ff);
    }
    return make_controller_factory<control::QualityAdaptController>(ff);
  }
  if (name == "local-only") {
    return make_controller_factory<control::LocalOnlyController>();
  }
  if (name == "always-offload") {
    return make_controller_factory<control::AlwaysOffloadController>();
  }
  if (name == "all-or-nothing") {
    return make_controller_factory<control::IntervalOffloadController>();
  }
  if (name == "aimd") {
    return make_controller_factory<control::AimdController>();
  }
  if (name == "fixed") {
    const double rate = config.get_double("controller.rate", 15.0);
    return make_controller_factory<control::FixedRateController>(rate);
  }
  if (name == "reservation") {
    server::ReservationConfig rc;
    rc.capacity_fps = config.get_double(
        "controller.capacity_fps",
        models::gpu_throughput(
            models::get_model(models::ModelId::kMobileNetV3Small), 15));
    // The manager is shared by all of one experiment's controllers and
    // owned by the factory closure.
    auto manager = std::make_shared<server::ReservationManager>(rc);
    return [manager](std::size_t device_index) {
      return std::make_unique<control::ReservationController>(
          *manager, device_index + 1);
    };
  }
  throw std::invalid_argument("unknown controller '" + name + "'; known: " +
                              known_controller_names());
}

}  // namespace ff::core
