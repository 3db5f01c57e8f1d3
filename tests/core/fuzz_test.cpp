// Randomized-scenario sweeps: generate chaotic network/load schedules from
// a seed and assert the system-wide invariants hold through all of them --
// the closest thing a deterministic DES has to fuzzing.

#include <gtest/gtest.h>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

net::NetemSchedule random_network(Rng& rng, SimDuration duration) {
  net::NetemSchedule s;
  SimTime t = 0;
  while (t < duration) {
    net::LinkConditions c;
    c.bandwidth = Bandwidth::mbps(rng.uniform(0.3, 20.0));
    c.loss_probability = rng.bernoulli(0.4) ? rng.uniform(0.0, 0.2) : 0.0;
    c.propagation_delay =
        static_cast<SimDuration>(rng.uniform(0, 20)) * kMillisecond;
    s.add(t, c);
    t += static_cast<SimDuration>(rng.uniform(2.0, 12.0) * kSecond);
  }
  return s;
}

server::LoadSchedule random_load(Rng& rng, SimDuration duration) {
  server::LoadSchedule s;
  SimTime t = 0;
  while (t < duration) {
    s.add(t, Rate{rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 250.0)});
    t += static_cast<SimDuration>(rng.uniform(3.0, 15.0) * kSecond);
  }
  return s;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, InvariantsSurviveChaos) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  const SimDuration duration = 45 * kSecond;

  Scenario s = Scenario::ideal(duration);
  s.seed = seed;
  s.network = random_network(rng, duration);
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);
  s.background_load = random_load(rng, duration);
  s.background.payload = models::frame_bytes({});
  if (rng.bernoulli(0.5)) {
    // Sometimes multi-device, sometimes with a shared medium.
    device::DeviceConfig d2 = s.devices[0];
    d2.name = "second";
    d2.profile = models::DeviceId::kPi3B;
    s.add_device(d2);
    s.shared_uplink_medium = rng.bernoulli(0.5);
  }

  // Alternate controller families across seeds.
  ControllerFactory factory;
  switch (seed % 4) {
    case 0:
      factory = make_controller_factory<control::FrameFeedbackController>();
      break;
    case 1:
      factory = make_controller_factory<control::AlwaysOffloadController>();
      break;
    case 2:
      factory = make_controller_factory<control::IntervalOffloadController>();
      break;
    default:
      factory = make_controller_factory<control::QualityAdaptController>();
      break;
  }

  const auto r = run_experiment(s, factory);

  EXPECT_EQ(r.duration, duration);
  EXPECT_GT(r.events_executed, 1000u);

  for (const auto& d : r.devices) {
    const auto& t = d.totals;
    // Resolution conservation.
    const std::uint64_t resolved = t.offload_successes + t.timeouts();
    EXPECT_LE(resolved, t.offload_attempts) << d.name;
    EXPECT_LE(t.offload_attempts - resolved, 32u) << d.name;
    EXPECT_LE(t.local_completions + t.local_drops + t.offload_attempts,
              t.frames_captured + 2)
        << d.name;
    // Client/telemetry agreement.
    EXPECT_EQ(d.offload.attempts, t.offload_attempts) << d.name;
    EXPECT_EQ(d.offload.successes, t.offload_successes) << d.name;
    // Series sanity.
    for (const char* name : {"P", "Po_target", "T", "cpu", "power_w"}) {
      const TimeSeries* series = d.series.find(name);
      ASSERT_NE(series, nullptr) << name;
      for (const auto& point : series->points()) {
        EXPECT_GE(point.value, 0.0) << d.name << "/" << name;
        EXPECT_LT(point.value, 1000.0) << d.name << "/" << name;
      }
    }
    // Po within [0, Fs].
    EXPECT_LE(d.series.find("Po_target")->stats().max(), 30.0 + 1e-9) << d.name;
    // Latency of successes never exceeded the deadline.
    if (!d.offload.latency_us.empty()) {
      EXPECT_LE(d.offload.latency_us.max(),
                static_cast<double>(250 * kMillisecond)) << d.name;
    }
  }

  // Server conservation.
  const server::ServerStats& srv = r.servers.front().stats;
  EXPECT_LE(srv.requests_completed + srv.requests_rejected,
            srv.requests_received);
  EXPECT_LE(srv.batch_size.max(), 15.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ff::core
