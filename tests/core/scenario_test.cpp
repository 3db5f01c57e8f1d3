#include "ff/core/scenario.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace ff::core {
namespace {

TEST(Scenario, PaperNetworkMatchesPaperSetup) {
  const Scenario s = Scenario::paper_network();
  // Three concurrent Pis (paper §IV-A), 4000 frames at 30 fps.
  ASSERT_EQ(s.devices.size(), 3u);
  for (const auto& d : s.devices) {
    EXPECT_DOUBLE_EQ(d.source_fps, 30.0);
    EXPECT_EQ(d.frame_limit, 4000u);
    EXPECT_EQ(d.model, models::ModelId::kMobileNetV3Small);
    EXPECT_EQ(d.deadline, 250 * kMillisecond);
  }
  EXPECT_EQ(s.network.phases().size(), 6u);  // Table V
  EXPECT_TRUE(s.background_load.empty());
  // Long enough for 4000 frames (133.3 s).
  EXPECT_GE(s.duration, 134 * kSecond);
}

TEST(Scenario, PaperDeviceTrioCoversTableII) {
  const auto trio = paper_device_trio();
  ASSERT_EQ(trio.size(), 3u);
  bool pi3 = false, pi4a = false, pi4b = false;
  for (const auto& d : trio) {
    pi3 |= d.profile == models::DeviceId::kPi3B;
    pi4a |= d.profile == models::DeviceId::kPi4BR12;
    pi4b |= d.profile == models::DeviceId::kPi4BR14;
  }
  EXPECT_TRUE(pi3 && pi4a && pi4b);
}

TEST(Scenario, PaperServerLoadHasTableVISchedule) {
  const Scenario s = Scenario::paper_server_load();
  EXPECT_EQ(s.background_load.phases().size(), 9u);
  EXPECT_DOUBLE_EQ(s.background_load.at(55 * kSecond).per_second, 150.0);
  // Clean network: load is the only stressor.
  EXPECT_DOUBLE_EQ(s.network.at(0).loss_probability, 0.0);
}

TEST(Scenario, PaperTuningInjectsLossAt27s) {
  const Scenario s = Scenario::paper_tuning();
  ASSERT_EQ(s.devices.size(), 1u);
  EXPECT_DOUBLE_EQ(s.network.at(26 * kSecond).loss_probability, 0.0);
  EXPECT_DOUBLE_EQ(s.network.at(28 * kSecond).loss_probability, 0.07);
  EXPECT_EQ(s.devices[0].frame_limit, 0u);  // streams the whole window
}

TEST(Scenario, IdealIsSingleCleanDevice) {
  const Scenario s = Scenario::ideal(10 * kSecond);
  ASSERT_EQ(s.devices.size(), 1u);
  EXPECT_EQ(s.duration, 10 * kSecond);
  EXPECT_DOUBLE_EQ(s.network.at(0).loss_probability, 0.0);
}

TEST(Scenario, AddDeviceAppends) {
  Scenario s = Scenario::ideal();
  device::DeviceConfig d;
  d.name = "extra";
  const std::size_t idx = s.add_device(d);
  EXPECT_EQ(idx, 1u);
  EXPECT_EQ(s.devices[1].name, "extra");
}

TEST(Scenario, SetFrameSpecAppliesToAll) {
  Scenario s = Scenario::paper_network();
  const models::FrameSpec spec{320, 320, 60};
  s.set_frame_spec(spec);
  for (const auto& d : s.devices) EXPECT_EQ(d.frame, spec);
}

void expect_rejected(const Scenario& s, const std::string& field) {
  try {
    s.validate();
    FAIL() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, ValidateRejectsNonPositiveRanges) {
  EXPECT_NO_THROW(Scenario::ideal().validate());
  EXPECT_NO_THROW(Scenario::paper_combined().validate());

  Scenario s = Scenario::ideal();
  s.duration = -kSecond;
  expect_rejected(s, "duration");
  s = Scenario::ideal();
  s.duration = 0;
  expect_rejected(s, "duration");
  s = Scenario::ideal();
  s.devices[0].source_fps = -5.0;
  expect_rejected(s, "source_fps");
  s = Scenario::ideal();
  s.devices[0].deadline = 0;
  expect_rejected(s, "deadline");
  s = Scenario::ideal();
  s.uplink_template.initial.bandwidth = Bandwidth::mbps(-1.0);
  expect_rejected(s, "uplink_template.initial.bandwidth");
  s = Scenario::ideal();
  s.downlink_template.initial.bandwidth = Bandwidth{0.0};
  expect_rejected(s, "downlink_template.initial.bandwidth");
  s = Scenario::paper_network();
  s.network.add(200 * kSecond, {Bandwidth{0.0}, 0.0, kMillisecond});
  expect_rejected(s, "network phase 6.bandwidth");
  s = Scenario::ideal();
  s.devices.clear();
  expect_rejected(s, "devices");
  for (const int size : {0, -1}) {
    s = Scenario::ideal();
    s.devices[0].frame.width = size;
    expect_rejected(s, "device '" + s.devices[0].name + "' frame.width");
    s = Scenario::ideal();
    s.devices[0].frame.height = size;
    expect_rejected(s, "device '" + s.devices[0].name + "' frame.height");
  }
  for (const int quality : {0, -1, 101, 500}) {
    s = Scenario::ideal();
    s.devices[0].frame.jpeg_quality = quality;
    expect_rejected(s,
                    "device '" + s.devices[0].name + "' frame.jpeg_quality");
  }
  s = Scenario::ideal();
  s.devices[0].frame = {1, 1, 1};
  EXPECT_NO_THROW(s.validate());
  s.devices[0].frame.jpeg_quality = 100;
  EXPECT_NO_THROW(s.validate());
}

TEST(Scenario, ValidateRejectsNegativeDelaysBadRatesAndBatchLimits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Scenario s = Scenario::ideal();
  s.uplink_template.initial.propagation_delay = -kMillisecond;
  expect_rejected(s, "uplink_template.initial.propagation_delay");
  s = Scenario::ideal();
  s.downlink_template.initial.propagation_delay = -1;
  expect_rejected(s, "downlink_template.initial.propagation_delay");
  s = Scenario::paper_network();
  s.network.add(200 * kSecond, {Bandwidth::mbps(1.0), 0.0, -kMillisecond});
  expect_rejected(s, "network phase 6.propagation_delay");
  // A zero delay stays valid: only partitioned runs need a lookahead.
  s = Scenario::ideal();
  s.network = net::NetemSchedule::constant({Bandwidth::mbps(10.0), 0.0, 0});
  s.uplink_template.initial.propagation_delay = 0;
  s.downlink_template.initial.propagation_delay = 0;
  EXPECT_NO_THROW(s.validate());

  for (const double rate : {-5.0, nan, 1e300}) {
    s = Scenario::paper_server_load();
    s.background_load = server::LoadSchedule::constant(Rate{rate});
    expect_rejected(s, "server background load phase 0 rate");
    s = Scenario::ideal();
    s.fleet = FleetTopology::uniform(s.server, 3);
    s.fleet.servers[2].background_load.add(kSecond, Rate{rate});
    expect_rejected(s, "fleet server 2 background load phase 0 rate");
    s = Scenario::ideal();
    s.devices[0].source_fps = rate;
    expect_rejected(s, "source_fps");
  }
  s = Scenario::paper_server_load();
  s.background_load = server::LoadSchedule::constant(Rate{0.0});
  EXPECT_NO_THROW(s.validate());

  s = Scenario::ideal();
  s.server.batch_limit = 0;
  expect_rejected(s, "server.batch_limit");
  s = Scenario::ideal();
  s.fleet = FleetTopology::uniform(s.server, 2);
  s.fleet.servers[1].config.batch_limit = -3;
  expect_rejected(s, "fleet server 1.batch_limit");
}

TEST(Scenario, LinkTemplatesTrackInitialConditions) {
  const Scenario s = Scenario::paper_network(Bandwidth::mbps(2.0));
  EXPECT_DOUBLE_EQ(s.uplink_template.initial.bandwidth.bits_per_second, 20e6);
  EXPECT_DOUBLE_EQ(s.downlink_template.initial.bandwidth.bits_per_second, 20e6);
}

}  // namespace
}  // namespace ff::core
