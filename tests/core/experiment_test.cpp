#include "ff/core/experiment.h"

#include <gtest/gtest.h>

#include "ff/control/baselines.h"
#include "ff/control/frame_feedback.h"

namespace ff::core {
namespace {

Scenario small_scenario(SimDuration duration = 15 * kSecond) {
  Scenario s = Scenario::ideal(duration);
  s.seed = 7;
  return s;
}

TEST(Experiment, ThrowsWithoutDevices) {
  Scenario s = small_scenario();
  s.devices.clear();
  EXPECT_THROW(
      Experiment(s, make_controller_factory<control::LocalOnlyController>()),
      std::invalid_argument);
}

TEST(Experiment, ThrowsOnNullControllerFactory) {
  EXPECT_THROW(Experiment(small_scenario(),
                          [](std::size_t) { return nullptr; }),
               std::invalid_argument);
}

TEST(Experiment, RunTwiceThrows) {
  Experiment e(small_scenario(),
               make_controller_factory<control::LocalOnlyController>());
  (void)e.run();
  EXPECT_THROW((void)e.run(), std::logic_error);
}

TEST(Experiment, ResultCarriesScenarioMetadata) {
  const auto r = run_experiment(
      small_scenario(),
      make_controller_factory<control::LocalOnlyController>());
  EXPECT_EQ(r.scenario, "ideal");
  EXPECT_EQ(r.seed, 7u);
  EXPECT_EQ(r.duration, 15 * kSecond);
  EXPECT_GT(r.events_executed, 100u);
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].controller, "local-only");
}

TEST(Experiment, SeriesAreRecordedEverySamplePeriod) {
  const auto r = run_experiment(
      small_scenario(),
      make_controller_factory<control::FrameFeedbackController>());
  const auto& series = r.devices[0].series;
  for (const char* name :
       {"P", "Pl", "Po_target", "Po_achieved", "Po_success", "T", "Tn", "Tl",
        "cpu"}) {
    const TimeSeries* s = series.find(name);
    ASSERT_NE(s, nullptr) << name;
    // 15 s at 1 Hz, first sample 0.5 s after the first control tick at
    // t = 1 s -> samples at 1.5, 2.5, ..., 14.5 s.
    EXPECT_EQ(s->size(), 14u) << name;
  }
}

TEST(Experiment, FirstSampleFollowsFirstControlTick) {
  // Regression: sampling used to start half a sample period in, before the
  // first control tick at measure_period, so every series began with a
  // pre-control transient (Po_target stuck at its initial value).
  const auto r = run_experiment(
      small_scenario(),
      make_controller_factory<control::FrameFeedbackController>());
  const control::FrameFeedbackConfig defaults;
  const SimTime first_control = defaults.measure_period;
  for (const char* name : {"P", "Po_target", "T"}) {
    const TimeSeries* s = r.devices[0].series.find(name);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_FALSE(s->empty()) << name;
    EXPECT_GT(s->points().front().time, first_control) << name;
  }
  // And the offset keeps the intended mid-period phase: half of the 1 s
  // sample period past the control tick.
  const TimeSeries* p = r.devices[0].series.find("P");
  EXPECT_EQ(p->points().front().time, first_control + kSecond / 2);
}

TEST(Experiment, LocalOnlyNeverOffloads) {
  const auto r = run_experiment(
      small_scenario(),
      make_controller_factory<control::LocalOnlyController>());
  EXPECT_EQ(r.devices[0].totals.offload_attempts, 0u);
  EXPECT_EQ(r.servers.front().stats.requests_received, 0u);
  EXPECT_NEAR(r.devices[0].mean_throughput(), 13.0, 1.0);
}

TEST(Experiment, FrameFeedbackReachesSourceRateOnCleanNetwork) {
  const auto r = run_experiment(
      small_scenario(40 * kSecond),
      make_controller_factory<control::FrameFeedbackController>());
  const TimeSeries* po = r.devices[0].series.find("Po_target");
  // Second half of the run: Po pinned at Fs.
  EXPECT_NEAR(po->mean_between(20 * kSecond, 40 * kSecond), 30.0, 1.0);
  EXPECT_NEAR(r.devices[0].series.find("P")->mean_between(20 * kSecond,
                                                          40 * kSecond),
              30.0, 1.5);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(
      small_scenario(),
      make_controller_factory<control::FrameFeedbackController>());
  const auto b = run_experiment(
      small_scenario(),
      make_controller_factory<control::FrameFeedbackController>());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.devices[0].totals.offload_attempts,
            b.devices[0].totals.offload_attempts);
  EXPECT_EQ(a.devices[0].totals.timeouts(), b.devices[0].totals.timeouts());
  const auto& pa = a.devices[0].series.find("P")->points();
  const auto& pb = b.devices[0].series.find("P")->points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i].value, pb[i].value) << i;
  }
}

TEST(Experiment, SeedChangesOutcomeDetails) {
  // Under loss the per-packet coin flips depend on the seed, so timeout
  // totals must differ between seeds.
  auto lossy = [](std::uint64_t seed) {
    Scenario s = small_scenario(30 * kSecond);
    s.seed = seed;
    s.network = net::NetemSchedule::constant(
        {Bandwidth::mbps(10.0), 0.07, 2 * kMillisecond});
    s.uplink_template.initial = s.network.at(0);
    s.downlink_template.initial = s.network.at(0);
    return s;
  };
  const auto a = run_experiment(
      lossy(7), make_controller_factory<control::AlwaysOffloadController>());
  const auto b = run_experiment(
      lossy(8), make_controller_factory<control::AlwaysOffloadController>());
  EXPECT_NE(a.events_executed, b.events_executed);
  EXPECT_GT(a.devices[0].uplink.retransmissions, 0u);
}

TEST(Experiment, PerDeviceControllerInstances) {
  Scenario s = small_scenario();
  device::DeviceConfig d2 = s.devices[0];
  d2.name = "second";
  s.add_device(d2);
  int created = 0;
  Experiment e(s, [&](std::size_t) {
    ++created;
    return std::make_unique<control::FrameFeedbackController>();
  });
  EXPECT_EQ(created, 2);
  EXPECT_EQ(e.device_count(), 2u);
  const auto r = e.run();
  EXPECT_EQ(r.devices.size(), 2u);
  EXPECT_EQ(r.devices[1].name, "second");
}

TEST(Experiment, FactoryReceivesDeviceIndex) {
  Scenario s = small_scenario();
  s.add_device(s.devices[0]);
  std::vector<std::size_t> indices;
  (void)Experiment(s, [&](std::size_t i) {
    indices.push_back(i);
    return std::make_unique<control::LocalOnlyController>();
  });
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1}));
}

TEST(Experiment, FrameConservationHoldsExactlyAtTheHorizon) {
  // A slow path guarantees the horizon cuts frames off mid-pipeline:
  // 60 ms of propagation each way means every frame captured in the last
  // ~120 ms is still awaiting its response when run_until stops. Without
  // terminal in-flight accounting those frames simply vanish from the
  // totals and the conservation identity fails.
  Scenario s = small_scenario(10 * kSecond);
  net::LinkConditions slow{Bandwidth::mbps(10.0), 0.0, 60 * kMillisecond};
  s.network = net::NetemSchedule::constant(slow);
  s.uplink_template.initial = slow;
  s.downlink_template.initial = slow;
  const auto r = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  const auto& t = r.devices[0].totals;
  EXPECT_GT(t.in_flight_at_end, 0u);  // the fix is actually exercised
  EXPECT_EQ(t.frames_captured, t.local_completions + t.local_drops +
                                   t.offload_successes + t.timeouts_network +
                                   t.timeouts_load + t.in_flight_at_end);
  EXPECT_TRUE(t.conserved());
}

TEST(Experiment, GoodputFractionConsistentWithTotals) {
  const auto r = run_experiment(
      small_scenario(),
      make_controller_factory<control::AlwaysOffloadController>());
  const auto& d = r.devices[0];
  EXPECT_NEAR(d.goodput_fraction(),
              static_cast<double>(d.totals.successes()) /
                  static_cast<double>(d.totals.frames_captured),
              1e-12);
  EXPECT_GT(d.goodput_fraction(), 0.9);  // clean network
}

TEST(Experiment, ServerStatsPopulated) {
  const auto r = run_experiment(
      small_scenario(),
      make_controller_factory<control::AlwaysOffloadController>());
  EXPECT_GT(r.servers.front().stats.requests_received, 300u);
  EXPECT_GT(r.servers.front().stats.batches_executed, 0u);
  EXPECT_GT(r.servers.front().gpu_utilization, 0.0);
  EXPECT_LE(r.servers.front().gpu_utilization, 1.0);
}

TEST(Experiment, TotalMeanThroughputSumsDevices) {
  Scenario s = small_scenario();
  s.add_device(s.devices[0]);
  s.devices[1].name = "b";
  const auto r = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  EXPECT_NEAR(r.total_mean_throughput(),
              r.devices[0].mean_throughput() + r.devices[1].mean_throughput(),
              1e-9);
}

}  // namespace
}  // namespace ff::core
