// End-to-end behaviour checks: the paper's qualitative claims, asserted on
// full device->network->server->controller stacks.

#include <gtest/gtest.h>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

Scenario one_device(SimDuration duration, net::NetemSchedule network) {
  Scenario s = Scenario::ideal(duration);
  s.seed = 21;
  s.network = std::move(network);
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);
  return s;
}

net::LinkConditions clean(double mbps = 10.0) {
  return {Bandwidth::mbps(mbps), 0.0, 2 * kMillisecond};
}

TEST(Integration, CleanNetworkFrameFeedbackBeatsLocalOnly) {
  const Scenario s =
      one_device(40 * kSecond, net::NetemSchedule::constant(clean()));
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  const auto local = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  EXPECT_GT(ff.devices[0].mean_throughput(),
            2.0 * local.devices[0].mean_throughput());
}

TEST(Integration, StarvedNetworkFrameFeedbackNeverBelowLocalRate) {
  // Paper §II-A.5: "the controller should always strive to keep P >= Pl."
  const Scenario s = one_device(
      60 * kSecond, net::NetemSchedule::constant(
                        {Bandwidth::mbps(1.0), 0.0, 2 * kMillisecond}));
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  // Steady state (after the first exploration crash).
  const double steady =
      ff.devices[0].series.find("P")->mean_between(20 * kSecond, 60 * kSecond);
  EXPECT_GT(steady, 12.0);  // Pl = 13 for the pi4b_r12
}

TEST(Integration, AlwaysOffloadCollapsesWhenStarved) {
  const Scenario s = one_device(
      40 * kSecond, net::NetemSchedule::constant(
                        {Bandwidth::mbps(1.0), 0.0, 2 * kMillisecond}));
  const auto always = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  // 1 Mbps carries ~4 fps of frames; offloading everything wrecks P while
  // local stays idle.
  EXPECT_LT(always.devices[0].series.find("P")->mean_between(10 * kSecond,
                                                             40 * kSecond),
            8.0);
}

TEST(Integration, RecoveryAfterOutage) {
  // Bandwidth collapses, then recovers; FrameFeedback must re-attain ~Fs.
  net::NetemSchedule sched;
  sched.add(0, clean());
  sched.add(20 * kSecond, {Bandwidth::mbps(0.5), 0.0, 2 * kMillisecond});
  sched.add(40 * kSecond, clean());
  const Scenario s = one_device(80 * kSecond, sched);
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  const TimeSeries* p = ff.devices[0].series.find("P");
  EXPECT_NEAR(p->mean_between(10 * kSecond, 20 * kSecond), 30.0, 2.0);
  EXPECT_LT(p->mean_between(25 * kSecond, 40 * kSecond), 20.0);
  EXPECT_NEAR(p->mean_between(60 * kSecond, 80 * kSecond), 30.0, 2.0);
}

TEST(Integration, TimeoutsDuringOutageAreNetworkAttributed) {
  const Scenario s = one_device(
      30 * kSecond, net::NetemSchedule::constant(
                        {Bandwidth::mbps(0.5), 0.0, 2 * kMillisecond}));
  const auto always = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  const auto& t = always.devices[0].totals;
  EXPECT_GT(t.timeouts_network, 100u);
  EXPECT_EQ(t.timeouts_load, 0u);
}

TEST(Integration, ServerOverloadProducesLoadTimeouts) {
  Scenario s = one_device(30 * kSecond,
                          net::NetemSchedule::constant(clean(50.0)));
  s.background_load = server::LoadSchedule::constant(Rate{250.0});
  s.background.payload = models::frame_bytes({});
  const auto always = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  const auto& t = always.devices[0].totals;
  EXPECT_GT(t.timeouts_load, 20u);  // rejections at batch formation
  EXPECT_GT(always.servers.front().stats.requests_rejected, 500u);
}

TEST(Integration, FrameFeedbackBacksOffUnderServerLoad) {
  Scenario s = one_device(60 * kSecond,
                          net::NetemSchedule::constant(clean(50.0)));
  s.background_load = server::LoadSchedule::constant(Rate{250.0});
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  // It cannot sustain full offload; it must keep P near/above Pl by
  // processing locally.
  const double steady_po = ff.devices[0]
                               .series.find("Po_target")
                               ->mean_between(20 * kSecond, 60 * kSecond);
  EXPECT_LT(steady_po, 25.0);
  const double steady_p =
      ff.devices[0].series.find("P")->mean_between(20 * kSecond, 60 * kSecond);
  EXPECT_GT(steady_p, 12.0);
}

TEST(Integration, LossInjectionCausesControllerDip) {
  // The Fig. 2 scenario end-to-end: 7% loss at t=27s on a tight-deadline
  // multi-fragment path must produce timeouts and a visible Po reaction.
  Scenario s = Scenario::paper_tuning();
  s.seed = 4;
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  const TimeSeries* po = ff.devices[0].series.find("Po_target");
  const double before = po->mean_between(15 * kSecond, 27 * kSecond);
  EXPECT_NEAR(before, 30.0, 2.0);
  const auto& t = ff.devices[0].totals;
  EXPECT_GT(t.timeouts_network, 0u);
  // After injection the trace is no longer pinned at Fs the whole time.
  const auto post = po->stats_between(28 * kSecond, 60 * kSecond);
  EXPECT_LT(post.min(), 29.0);
}

TEST(Integration, MultiTenantDevicesShareServer) {
  Scenario s = Scenario::paper_server_load();
  s.seed = 11;
  s.duration = 30 * kSecond;
  s.background_load = server::LoadSchedule{};  // isolate: devices only
  const auto r = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  ASSERT_EQ(r.devices.size(), 3u);
  // All three fully offload through the same server.
  EXPECT_GT(r.servers.front().stats.requests_received, 2500u);
  for (const auto& d : r.devices) {
    EXPECT_GT(d.totals.offload_successes, 800u) << d.name;
  }
  // Batching kicked in: mean batch above 1.
  EXPECT_GT(r.servers.front().stats.mean_batch_size(), 1.5);
}

TEST(Integration, HeartbeatProbesAreIssuedByIntervalController) {
  const Scenario s =
      one_device(20 * kSecond, net::NetemSchedule::constant(clean()));
  ExperimentResult r = run_experiment(
      s, make_controller_factory<control::IntervalOffloadController>());
  EXPECT_GT(r.devices[0].offload.probes_sent, 15u);
  EXPECT_GT(r.devices[0].offload.probes_ok, 10u);
}

TEST(Integration, IntervalControllerFlapsUnderMarginalBandwidth) {
  // At 4 Mbps (~16 fps capacity) all-or-nothing alternates between
  // offloading everything (fails) and going local: its Po_target series
  // must contain both 0 and 30.
  const Scenario s = one_device(
      60 * kSecond, net::NetemSchedule::constant(
                        {Bandwidth::mbps(4.0), 0.0, 2 * kMillisecond}));
  const auto aon = run_experiment(
      s, make_controller_factory<control::IntervalOffloadController>());
  const auto stats = aon.devices[0].series.find("Po_target")->stats();
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 30.0);
}

TEST(Integration, FrameFeedbackBeatsIntervalUnderMarginalBandwidth) {
  // The paper's headline: 50% to 3x better under intermediate conditions.
  const Scenario s = one_device(
      90 * kSecond, net::NetemSchedule::constant(
                        {Bandwidth::mbps(4.0), 0.0, 2 * kMillisecond}));
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  const auto aon = run_experiment(
      s, make_controller_factory<control::IntervalOffloadController>());
  const double ratio = throughput_ratio(ff.devices[0], aon.devices[0],
                                        10 * kSecond, 90 * kSecond);
  EXPECT_GT(ratio, 1.5);
}

TEST(Integration, CpuUtilizationDropsWhenOffloading) {
  // Paper §II-A: 50.2% -> 22.3% local to offload.
  const Scenario s =
      one_device(30 * kSecond, net::NetemSchedule::constant(clean()));
  const auto local = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  const auto offload = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  const double u_local =
      local.devices[0].series.find("cpu")->mean_between(10 * kSecond,
                                                        30 * kSecond);
  const double u_off =
      offload.devices[0].series.find("cpu")->mean_between(10 * kSecond,
                                                          30 * kSecond);
  EXPECT_NEAR(u_local, 0.502, 0.05);
  EXPECT_NEAR(u_off, 0.223, 0.05);
}

}  // namespace
}  // namespace ff::core
