#include "ff/core/scenario_config.h"

#include <gtest/gtest.h>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

Config make_config(std::initializer_list<std::pair<const char*,
                   const char*>> kvs) {
  Config c;
  for (const auto& [k, v] : kvs) c.set(k, v);
  return c;
}

TEST(ScenarioConfig, DefaultsToIdeal) {
  const Scenario s = scenario_from_config(Config{});
  EXPECT_EQ(s.name, "ideal");
  EXPECT_EQ(s.devices.size(), 1u);
}

TEST(ScenarioConfig, SelectsPaperScenarios) {
  EXPECT_EQ(scenario_from_config(make_config({{"scenario",
                                               "paper_network"}})).name,
            "paper-network");
  EXPECT_EQ(scenario_from_config(make_config({{"scenario",
                                               "paper_server_load"}})).name,
            "paper-server-load");
  EXPECT_EQ(scenario_from_config(make_config({{"scenario",
                                               "paper_combined"}})).name,
            "paper-combined");
  EXPECT_EQ(scenario_from_config(make_config({{"scenario",
                                               "mixed_models"}})).name,
            "mixed-models");
}

TEST(ScenarioConfig, UnknownScenarioThrows) {
  EXPECT_THROW(scenario_from_config(make_config({{"scenario", "nope"}})),
               std::invalid_argument);
}

TEST(ScenarioConfig, SeedAndDuration) {
  const Scenario s = scenario_from_config(
      make_config({{"seed", "99"}, {"duration_s", "12.5"}}));
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.duration, seconds_to_sim(12.5));
}

TEST(ScenarioConfig, DeviceReplication) {
  const Scenario s = scenario_from_config(
      make_config({{"devices", "5"}, {"device.fps", "24"}}));
  ASSERT_EQ(s.devices.size(), 5u);
  for (const auto& d : s.devices) {
    EXPECT_DOUBLE_EQ(d.source_fps, 24.0);
  }
  EXPECT_NE(s.devices[0].name, s.devices[1].name);
}

TEST(ScenarioConfig, DeviceCountBelowOneThrows) {
  for (const char* count : {"0", "-1"}) {
    try {
      (void)scenario_from_config(make_config({{"devices", count}}));
      FAIL() << "devices=" << count << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("devices=") + count),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioConfig, IntegerKeysOutsideTheirRangeThrow) {
  // Each value once wrapped in a narrowing cast, was clamped by std::max
  // or, for the queue limit without a policy, was never read: the run
  // silently used a different value.
  const std::vector<std::pair<const char*, const char*>> cases{
      {"device.width", "4294967297"},
      {"device.height", "-4294967295"},
      {"device.quality", "4294967346"},
      {"medium_groups", "-3"},
      {"medium_groups", "0"},
      {"partitions", "-1"},
      {"partition_threads", "-2"},
      {"partition_threads", "4294967296"},
      {"fleet.servers", "0"},
      {"fleet.servers", "-4"},
      {"device.frame_limit", "-1"},
      {"fleet.admission.queue_limit", "-5"}};
  for (const auto& [key, value] : cases) {
    try {
      (void)scenario_from_config(make_config({{key, value}}));
      FAIL() << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(key) + "=" + value + " must be in ["),
                std::string::npos)
          << what;
    }
  }
  EXPECT_THROW(
      (void)scenario_from_config(
          make_config({{"fleet.admission.policy", "queue-depth"},
                       {"fleet.admission.queue_limit", "0"}})),
      std::invalid_argument);
}

TEST(ScenarioConfig, IntegerKeysAtTheirBoundsAreRead) {
  const Scenario s = scenario_from_config(
      make_config({{"partitions", "0"},
                   {"partition_threads", "0"},
                   {"medium_groups", "1"},
                   {"device.frame_limit", "0"},
                   {"device.width", "2147483647"},
                   {"fleet.servers", "1"}}));
  EXPECT_EQ(s.partitions, 0u);
  EXPECT_EQ(s.partition_threads, 0u);
  EXPECT_EQ(s.uplink_medium_groups, 1u);
  EXPECT_EQ(s.devices[0].frame_limit, 0u);
  EXPECT_EQ(s.devices[0].frame.width, 2147483647);
  EXPECT_EQ(s.fleet.servers.size(), 1u);
}

TEST(ScenarioConfig, DeviceOverrides) {
  const Scenario s = scenario_from_config(make_config(
      {{"device.profile", "pi3b"},
       {"device.model", "efficientnet_b0"},
       {"device.deadline_ms", "100"},
       {"device.quality", "60"}}));
  EXPECT_EQ(s.devices[0].profile, models::DeviceId::kPi3B);
  EXPECT_EQ(s.devices[0].model, models::ModelId::kEfficientNetB0);
  EXPECT_EQ(s.devices[0].deadline, 100 * kMillisecond);
  EXPECT_EQ(s.devices[0].frame.jpeg_quality, 60);
}

TEST(ScenarioConfig, InvalidDeviceNamesThrow) {
  EXPECT_THROW(
      scenario_from_config(make_config({{"device.profile", "jetson"}})),
      std::invalid_argument);
  EXPECT_THROW(scenario_from_config(make_config({{"device.model", "vgg"}})),
               std::invalid_argument);
}

TEST(ScenarioConfig, ConstantNetworkOverride) {
  const Scenario s = scenario_from_config(make_config(
      {{"net.bandwidth_mbps", "4"}, {"net.loss", "0.07"}, {"net.delay_ms",
                                                           "5"}}));
  const auto c = s.network.at(0);
  EXPECT_DOUBLE_EQ(c.bandwidth.bits_per_second, 4e6);
  EXPECT_DOUBLE_EQ(c.loss_probability, 0.07);
  EXPECT_EQ(c.propagation_delay, 5 * kMillisecond);
  EXPECT_DOUBLE_EQ(s.uplink_template.initial.loss_probability, 0.07);
}

TEST(ScenarioConfig, BackgroundLoadOverride) {
  const Scenario s =
      scenario_from_config(make_config({{"load.rate", "120"}}));
  EXPECT_DOUBLE_EQ(s.background_load.at(0).per_second, 120.0);
}

TEST(ScenarioConfig, SharedMediumFlag) {
  EXPECT_TRUE(scenario_from_config(make_config({{"shared_medium", "true"}}))
                  .shared_uplink_medium);
}

TEST(ControllerConfig, BuildsEveryKnownController) {
  for (const char* name :
       {"frame-feedback", "local-only", "always-offload", "all-or-nothing",
        "aimd", "quality-adapt", "fixed", "reservation"}) {
    const auto factory =
        controller_factory_from_config(make_config({{"controller", name}}));
    const auto ctl = factory(0);
    ASSERT_NE(ctl, nullptr) << name;
  }
}

TEST(ControllerConfig, UnknownControllerThrows) {
  EXPECT_THROW(
      controller_factory_from_config(make_config({{"controller", "magic"}})),
      std::invalid_argument);
}

TEST(ControllerConfig, GainOverridesApply) {
  const auto factory = controller_factory_from_config(make_config(
      {{"controller", "frame-feedback"}, {"controller.kp", "0.7"},
       {"controller.kd", "0.1"}}));
  auto ctl = factory(0);
  const auto* ff = dynamic_cast<control::FrameFeedbackController*>(ctl.get());
  ASSERT_NE(ff, nullptr);
  EXPECT_DOUBLE_EQ(ff->config().kp, 0.7);
  EXPECT_DOUBLE_EQ(ff->config().kd, 0.1);
}

TEST(ControllerConfig, FixedRate) {
  const auto factory = controller_factory_from_config(
      make_config({{"controller", "fixed"}, {"controller.rate", "11"}}));
  auto ctl = factory(0);
  control::ControllerInput in;
  in.source_fps = 30.0;
  EXPECT_DOUBLE_EQ(ctl->update(in), 11.0);
}

TEST(ControllerConfig, ReservationControllersShareOneManager) {
  const auto factory = controller_factory_from_config(make_config(
      {{"controller", "reservation"}, {"controller.capacity_fps", "45"}}));
  auto a = factory(0);
  auto b = factory(1);
  control::ControllerInput in;
  in.source_fps = 30.0;
  (void)a->update(in);
  (void)b->update(in);
  // Shared 45*0.9 = 40.5 capacity split two ways.
  EXPECT_DOUBLE_EQ(a->update(in), 20.25);
}

/// Every listed key is really read: an unparseable value under it (with
/// the controller or admission policy that reads it selected) throws. A
/// listed key nobody reads would silently accept typo-free garbage.
TEST(ScenarioConfig, EveryListedKeyIsRead) {
  for (const std::string& key : config_keys()) {
    Config c;
    if (key == "controller.rate") c.set("controller", "fixed");
    if (key == "controller.capacity_fps") c.set("controller", "reservation");
    if (key.rfind("fleet.admission.", 0) == 0) {
      c.set("fleet.admission.policy", "token-bucket");
    }
    c.set(key, "x?");
    EXPECT_THROW(
        {
          (void)scenario_from_config(c);
          (void)controller_factory_from_config(c);
        },
        std::invalid_argument)
        << key;
  }
}

TEST(ScenarioConfig, EndToEndRunFromConfig) {
  Config c = make_config({{"scenario", "ideal"},
                          {"duration_s", "10"},
                          {"seed", "4"},
                          {"controller", "frame-feedback"}});
  const auto r = run_experiment(scenario_from_config(c),
                                controller_factory_from_config(c));
  EXPECT_EQ(r.duration, 10 * kSecond);
  EXPECT_GT(r.devices[0].mean_throughput(), 10.0);
}

}  // namespace
}  // namespace ff::core
