#include "ff/core/scenario.h"

#include <sstream>
#include <stdexcept>

namespace ff::core {
namespace {

[[noreturn]] void reject(const std::string& field, double value,
                         const char* rule) {
  std::ostringstream msg;
  msg << "Scenario: " << field << " = " << value << " must be " << rule;
  throw std::invalid_argument(msg.str());
}

void check_link(const net::LinkConditions& c, const std::string& field) {
  if (!(c.bandwidth.bits_per_second > 0.0)) {
    reject(field + ".bandwidth (bit/s)", c.bandwidth.bits_per_second,
           "> 0");
  }
  if (c.propagation_delay < 0) {
    reject(field + ".propagation_delay (s)",
           sim_to_seconds(c.propagation_delay), ">= 0");
  }
}

/// Fastest rate the kernel can represent: one event per SimTime tick. A
/// faster rate's period rounds to zero and stalls the clock.
constexpr double kMaxRate = static_cast<double>(kSecond);

void check_rate(double per_second, const std::string& field,
                bool zero_ok) {
  // Written so that NaN, which fails every comparison, is rejected.
  if (!((zero_ok ? per_second >= 0.0 : per_second > 0.0) &&
        per_second <= kMaxRate)) {
    reject(field, per_second, zero_ok ? "in [0, 1e6]" : "in (0, 1e6]");
  }
}

void check_server(const server::ServerConfig& config,
                  const server::LoadSchedule& load,
                  const std::string& field) {
  if (config.batch_limit < 1) {
    reject(field + ".batch_limit", config.batch_limit, ">= 1");
  }
  for (std::size_t i = 0; i < load.phases().size(); ++i) {
    check_rate(load.phases()[i].rate.per_second,
               field + " background load phase " + std::to_string(i) +
                   " rate (1/s)",
               true);
  }
}

[[nodiscard]] device::DeviceConfig make_pi(std::string name,
                                           models::DeviceId profile) {
  device::DeviceConfig d;
  d.name = std::move(name);
  d.profile = profile;
  d.model = models::ModelId::kMobileNetV3Small;
  d.source_fps = 30.0;
  d.frame_limit = 4000;
  return d;
}

}  // namespace

std::vector<device::DeviceConfig> paper_device_trio() {
  return {
      make_pi("pi4b_r14", models::DeviceId::kPi4BR14),
      make_pi("pi4b_r12", models::DeviceId::kPi4BR12),
      make_pi("pi3b", models::DeviceId::kPi3B),
  };
}

std::size_t Scenario::add_device(device::DeviceConfig config) {
  devices.push_back(std::move(config));
  return devices.size() - 1;
}

void Scenario::set_frame_spec(const models::FrameSpec& spec) {
  for (auto& d : devices) d.frame = spec;
}

void Scenario::validate() const {
  if (devices.empty()) {
    throw std::invalid_argument("Scenario: devices is empty");
  }
  if (duration <= 0) reject("duration (s)", sim_to_seconds(duration), "> 0");
  for (const auto& d : devices) {
    check_rate(d.source_fps, "device '" + d.name + "' source_fps", false);
    if (d.deadline <= 0) {
      reject("device '" + d.name + "' deadline (s)",
             sim_to_seconds(d.deadline), "> 0");
    }
    if (d.frame.width < 1) {
      reject("device '" + d.name + "' frame.width", d.frame.width, ">= 1");
    }
    if (d.frame.height < 1) {
      reject("device '" + d.name + "' frame.height", d.frame.height, ">= 1");
    }
    if (d.frame.jpeg_quality < 1 || d.frame.jpeg_quality > 100) {
      reject("device '" + d.name + "' frame.jpeg_quality",
             d.frame.jpeg_quality, "in [1, 100]");
    }
  }
  check_link(uplink_template.initial, "uplink_template.initial");
  check_link(downlink_template.initial, "downlink_template.initial");
  for (std::size_t i = 0; i < network.phases().size(); ++i) {
    check_link(network.phases()[i].conditions,
               "network phase " + std::to_string(i));
  }
  check_server(server, background_load, "server");
  for (std::size_t s = 0; s < fleet.servers.size(); ++s) {
    check_server(fleet.servers[s].config, fleet.servers[s].background_load,
                 "fleet server " + std::to_string(s));
  }
}

Scenario Scenario::paper_network(Bandwidth bandwidth_unit) {
  Scenario s;
  s.name = "paper-network";
  s.duration = 135 * kSecond;  // 4000 frames at 30 fps + settle
  s.devices = paper_device_trio();
  s.network = net::NetemSchedule::paper_table_v(bandwidth_unit);
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);
  return s;
}

Scenario Scenario::paper_server_load() {
  Scenario s;
  s.name = "paper-server-load";
  s.duration = 135 * kSecond;
  s.devices = paper_device_trio();
  const net::LinkConditions clean{Bandwidth::mbps(10.0), 0.0, 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(clean);
  s.uplink_template.initial = clean;
  s.downlink_template.initial = clean;
  s.background_load = server::LoadSchedule::paper_table_vi();
  s.background.model = models::ModelId::kMobileNetV3Small;
  s.background.payload = models::frame_bytes({});
  return s;
}

Scenario Scenario::paper_tuning() {
  Scenario s;
  s.name = "paper-tuning";
  s.duration = 60 * kSecond;
  device::DeviceConfig d = make_pi("pi4b_r14", models::DeviceId::kPi4BR14);
  d.frame_limit = 0;  // stream for the whole window
  s.devices = {d};
  s.network = net::NetemSchedule::loss_injection(27 * kSecond, 0.07,
                                                 Bandwidth::mbps(10.0));
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);
  return s;
}

Scenario Scenario::paper_combined(Bandwidth bandwidth_unit) {
  Scenario s = paper_network(bandwidth_unit);
  s.name = "paper-combined";
  s.background_load = server::LoadSchedule::paper_table_vi();
  s.background.model = models::ModelId::kMobileNetV3Small;
  s.background.payload = models::frame_bytes({});
  return s;
}

Scenario Scenario::mixed_models(SimDuration duration) {
  Scenario s;
  s.name = "mixed-models";
  s.duration = duration;
  s.devices = paper_device_trio();
  s.devices[0].model = models::ModelId::kMobileNetV3Small;
  s.devices[1].model = models::ModelId::kMobileNetV3Large;
  s.devices[2].model = models::ModelId::kEfficientNetB0;
  for (auto& d : s.devices) d.frame_limit = 0;
  const net::LinkConditions clean{Bandwidth::mbps(10.0), 0.0, 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(clean);
  s.uplink_template.initial = clean;
  s.downlink_template.initial = clean;
  return s;
}

Scenario Scenario::ideal(SimDuration duration) {
  Scenario s;
  s.name = "ideal";
  s.duration = duration;
  device::DeviceConfig d = make_pi("device", models::DeviceId::kPi4BR12);
  d.frame_limit = 0;
  s.devices = {d};
  const net::LinkConditions clean{Bandwidth::mbps(50.0), 0.0, kMillisecond};
  s.network = net::NetemSchedule::constant(clean);
  s.uplink_template.initial = clean;
  s.downlink_template.initial = clean;
  return s;
}

}  // namespace ff::core
