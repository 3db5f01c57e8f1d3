// End-to-end tests of the quality-adaptation extension and the combined /
// mixed-model scenarios.

#include <gtest/gtest.h>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

TEST(QualityIntegration, QualitySeriesRecorded) {
  Scenario s = Scenario::ideal(10 * kSecond);
  s.seed = 3;
  const auto r = run_experiment(
      s, make_controller_factory<control::QualityAdaptController>());
  const TimeSeries* q = r.devices[0].series.find("quality");
  const TimeSeries* acc = r.devices[0].series.find("accuracy");
  ASSERT_NE(q, nullptr);
  ASSERT_NE(acc, nullptr);
  // 10 s at 1 Hz with the first sample at 1.5 s: 1.5, 2.5, ..., 9.5 s.
  EXPECT_EQ(q->size(), 9u);
  // Clean network: quality stays at the top rung.
  EXPECT_DOUBLE_EQ(q->stats().min(), 85.0);
}

TEST(QualityIntegration, QualityDropsWhenBandwidthStarves) {
  Scenario s = Scenario::ideal(60 * kSecond);
  s.seed = 3;
  const net::LinkConditions tight{Bandwidth::mbps(2.0), 0.0, 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(tight);
  s.uplink_template.initial = tight;
  s.downlink_template.initial = tight;
  const auto r = run_experiment(
      s, make_controller_factory<control::QualityAdaptController>());
  const TimeSeries* q = r.devices[0].series.find("quality");
  // Network timeouts must have pushed quality below the top rung at some
  // point.
  EXPECT_LT(q->stats().min(), 85.0);
  // And accuracy tracks quality downward.
  EXPECT_LT(r.devices[0].series.find("accuracy")->stats().min(),
            models::get_model(s.devices[0].model).top1_accuracy + 1e-9);
}

TEST(QualityIntegration, AdaptiveQualityBeatsFixedUnderTightBandwidth) {
  Scenario s = Scenario::ideal(90 * kSecond);
  s.seed = 5;
  const net::LinkConditions tight{Bandwidth::mbps(3.0), 0.0, 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(tight);
  s.uplink_template.initial = tight;
  s.downlink_template.initial = tight;

  const auto adaptive = run_experiment(
      s, make_controller_factory<control::QualityAdaptController>());
  const auto fixed = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  // 3 Mbps carries ~12.5 fps at q85 but ~25 fps at q55: the adaptive
  // controller must find materially more throughput.
  const double p_adaptive = adaptive.devices[0].series.find("P")->mean_between(
      30 * kSecond, adaptive.duration);
  const double p_fixed = fixed.devices[0].series.find("P")->mean_between(
      30 * kSecond, fixed.duration);
  EXPECT_GT(p_adaptive, p_fixed + 3.0);
}

TEST(QualityIntegration, DeviceQualityChangeShrinksPayload) {
  sim::Simulator sim(1);
  server::EdgeServer server(sim, {});
  NetworkedTransportConfig tc;
  NetworkedOffloadTransport transport(sim, sim, server, tc);
  device::DeviceConfig dc;
  device::EdgeDevice dev(sim, transport, dc);
  const Bytes before = dev.frame_payload();
  dev.set_frame_quality(40);
  EXPECT_LT(dev.frame_payload().count, before.count);
  EXPECT_EQ(dev.frame_spec().jpeg_quality, 40);
  dev.set_frame_quality(500);  // clamped
  EXPECT_EQ(dev.frame_spec().jpeg_quality, 100);
}

TEST(CombinedScenario, HasBothSchedules) {
  const Scenario s = Scenario::paper_combined();
  EXPECT_EQ(s.network.phases().size(), 6u);
  EXPECT_EQ(s.background_load.phases().size(), 9u);
  EXPECT_EQ(s.name, "paper-combined");
}

TEST(CombinedScenario, ProducesBothTimeoutKinds) {
  Scenario s = Scenario::paper_combined();
  s.seed = 9;
  s.duration = 60 * kSecond;  // covers the 1-unit net phase + 150 req/s load
  const auto r = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  std::uint64_t tn = 0, tl = 0;
  for (const auto& d : r.devices) {
    tn += d.totals.timeouts_network;
    tl += d.totals.timeouts_load;
  }
  EXPECT_GT(tn, 0u);
  EXPECT_GT(tl, 0u);
}

TEST(MixedModels, DevicesRunDistinctModels) {
  const Scenario s = Scenario::mixed_models();
  ASSERT_EQ(s.devices.size(), 3u);
  EXPECT_NE(s.devices[0].model, s.devices[1].model);
  EXPECT_NE(s.devices[1].model, s.devices[2].model);
}

TEST(MixedModels, ServerBatchesPerModelWithoutStarvation) {
  Scenario s = Scenario::mixed_models(30 * kSecond);
  s.seed = 13;
  const auto r = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  // Every device's model got served.
  for (const auto& d : r.devices) {
    EXPECT_GT(d.totals.offload_successes, 100u) << d.name;
  }
}

}  // namespace
}  // namespace ff::core
