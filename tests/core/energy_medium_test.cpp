// End-to-end tests of the energy accounting and the shared-medium
// topology.

#include <gtest/gtest.h>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

TEST(Energy, SeriesAndTotalsRecorded) {
  Scenario s = Scenario::ideal(20 * kSecond);
  s.seed = 6;
  const auto r = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  const TimeSeries* p = r.devices[0].series.find("power_w");
  ASSERT_NE(p, nullptr);
  // 20 s at 1 Hz with the first sample at 1.5 s: 1.5, 2.5, ..., 19.5 s.
  EXPECT_EQ(p->size(), 19u);
  EXPECT_GT(r.devices[0].energy_joules, 0.0);
  // Sanity: a Pi over 20 s draws tens of joules, not thousands.
  EXPECT_LT(r.devices[0].energy_joules, 300.0);
  EXPECT_GT(r.devices[0].joules_per_inference(), 0.0);
}

TEST(Energy, OffloadingCheaperPerInference) {
  // The paper's §II-A energy claim, end to end.
  Scenario s = Scenario::ideal(40 * kSecond);
  s.seed = 6;
  const auto local = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  const auto offload = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  EXPECT_LT(offload.devices[0].joules_per_inference(),
            local.devices[0].joules_per_inference());
}

TEST(Energy, IdleDeviceDrawsLessThanBusy) {
  Scenario s = Scenario::ideal(20 * kSecond);
  s.seed = 6;
  const auto local = run_experiment(
      s, make_controller_factory<control::LocalOnlyController>());
  // Local inference pins the CPU; mean draw must exceed the idle floor of
  // the profile by a solid margin.
  const double mean_w = local.devices[0].series.find("power_w")->stats().mean();
  const auto profile =
      models::default_power_profile(s.devices[0].profile);
  EXPECT_GT(mean_w, profile.idle_w + 1.0);
}

TEST(SharedMediumTopology, ContendedDevicesSettleBelowFullRate) {
  Scenario s = Scenario::paper_network();
  s.seed = 15;
  s.duration = 60 * kSecond;
  const net::LinkConditions clean{Bandwidth::mbps(10.0), 0.0, 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(clean);
  s.uplink_template.initial = clean;
  s.downlink_template.initial = clean;
  for (auto& d : s.devices) d.frame_limit = 0;
  s.shared_uplink_medium = true;

  const auto r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  // Three devices on one 10 Mbps channel cannot all offload 30 fps of
  // ~29 KB frames (21 Mbps demand): the aggregate successful offload rate
  // must sit well below 90 and near what the channel carries.
  double aggregate = 0.0;
  for (const auto& d : r.devices) {
    aggregate += d.series.find("Po_success")->mean_between(20 * kSecond,
                                                           r.duration);
  }
  EXPECT_LT(aggregate, 60.0);
  EXPECT_GT(aggregate, 15.0);
  // And every device keeps P at or above its local rate.
  for (const auto& d : r.devices) {
    EXPECT_GT(d.series.find("P")->mean_between(20 * kSecond, r.duration), 4.5)
        << d.name;
  }
}

TEST(SharedMediumTopology, IndependentLinksUnaffectedByFlag) {
  Scenario a = Scenario::ideal(20 * kSecond);
  a.seed = 16;
  Scenario b = a;
  b.shared_uplink_medium = true;  // single device: no contention anyway
  const auto ra = run_experiment(
      a, make_controller_factory<control::FrameFeedbackController>());
  const auto rb = run_experiment(
      b, make_controller_factory<control::FrameFeedbackController>());
  EXPECT_NEAR(ra.devices[0].mean_throughput(), rb.devices[0].mean_throughput(),
              0.5);
}

TEST(ReservationIntegration, TiesFrameFeedbackWhenWorldMatchesModel) {
  // No background load, clean network: the reservation grant is Fs and
  // both approaches saturate.
  Scenario s = Scenario::ideal(30 * kSecond);
  s.seed = 17;
  server::ReservationManager mgr({162.0});
  const auto res = run_experiment(s, [&mgr](std::size_t i) {
    return std::make_unique<control::ReservationController>(mgr, i + 1);
  });
  EXPECT_GT(res.devices[0].series.find("P")->mean_between(10 * kSecond,
                                                          30 * kSecond),
            28.0);
}

TEST(ReservationIntegration, BlindToNetworkDegradation) {
  Scenario s = Scenario::ideal(40 * kSecond);
  s.seed = 18;
  const net::LinkConditions dead{Bandwidth::mbps(0.5), 0.0, 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(dead);
  s.uplink_template.initial = dead;
  s.downlink_template.initial = dead;
  server::ReservationManager mgr({162.0});
  const auto res = run_experiment(s, [&mgr](std::size_t i) {
    return std::make_unique<control::ReservationController>(mgr, i + 1);
  });
  const auto ff = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  // The reservation keeps offloading into the dead link; FrameFeedback
  // falls back to local processing.
  EXPECT_LT(res.devices[0].series.find("P")->mean_between(15 * kSecond,
                                                          40 * kSecond),
            8.0);
  EXPECT_GT(ff.devices[0].series.find("P")->mean_between(15 * kSecond,
                                                         40 * kSecond),
            12.0);
}

}  // namespace
}  // namespace ff::core
