// Golden fingerprints: literal `sweep::result_fingerprint` values pinned
// for scenarios that reach every branch of `Experiment::build`. The other
// determinism tests compare runs with each other (K=1 vs K=4, a run vs its
// replay), so a refactor that reorders events the same way on every run
// passes them; these literals catch it. A change that moves one of these
// values on purpose must say so and re-pin it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/fleet/placement.h"
#include "ff/sweep/sweep.h"

namespace ff::fleet {
namespace {

using core::Scenario;

/// Eight devices in three shared-medium groups on an M = 4 fleet, with
/// background load on server 2 only, placement hints for some devices,
/// least-loaded placement for the rest, and a three-phase netem schedule
/// (clean, lossy, narrow and slow).
Scenario golden_fleet(std::size_t partitions) {
  Scenario s = Scenario::ideal(12 * kSecond);
  s.name = "golden-fleet";
  s.seed = 2024;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 8; ++i) {
    device::DeviceConfig d = proto;
    d.name = "pi-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 3;

  net::NetemSchedule netem;
  netem.add(0, {Bandwidth::mbps(20.0), 0.0, 2 * kMillisecond}, "clean");
  netem.add(4 * kSecond, {Bandwidth::mbps(10.0), 0.04, 5 * kMillisecond},
            "lossy");
  netem.add(8 * kSecond, {Bandwidth::mbps(3.0), 0.01, 20 * kMillisecond},
            "narrow");
  s.network = std::move(netem);

  s.fleet = core::FleetTopology::uniform(s.server, 4);
  s.fleet.servers[2].background_load =
      server::LoadSchedule::constant(Rate{60.0});
  s.fleet.placement_hints = {3, -1, 1, -1, 2, 0};
  s.fleet.placement = least_loaded_placement();

  s.partitions = partitions;
  s.partition_threads = 1;
  return s;
}

core::ExperimentResult run(const Scenario& s) {
  return core::run_experiment(
      s, core::make_controller_factory<control::FrameFeedbackController>());
}

std::uint64_t fingerprint(const Scenario& s) {
  return sweep::result_fingerprint(run(s));
}

/// The golden scenario is not vacuous: every server takes offloads, the
/// background load lands on server 2 alone, and the lossy phase costs
/// retransmissions.
TEST(GoldenFingerprint, FleetScenarioReachesEveryBranch) {
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}}) {
    const core::ExperimentResult r = run(golden_fleet(k));
    ASSERT_EQ(r.servers.size(), 4u);
    for (const core::ServerResult& sr : r.servers) {
      EXPECT_GT(sr.stats.requests_completed, 0u) << sr.name << " K=" << k;
    }
    std::uint64_t device_offloads = 0;
    std::uint64_t retransmits = 0;
    for (const core::DeviceResult& d : r.devices) {
      device_offloads += d.offload.attempts;
      retransmits += d.uplink.retransmissions;
    }
    std::uint64_t received = 0;
    for (const core::ServerResult& sr : r.servers) {
      received += sr.stats.requests_received;
    }
    EXPECT_GT(received, device_offloads) << "K=" << k;
    EXPECT_GT(retransmits, 0u) << "K=" << k;
  }
}

TEST(GoldenFingerprint, FleetSerialKernel) {
  // One partition: K = 0 is an alias for K = 1.
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_EQ(fingerprint(golden_fleet(k)), 0x888b9e036d86e57aull)
        << "K=" << k;
  }
}

TEST(GoldenFingerprint, FleetPartitionedKernel) {
  // Every K shares one fingerprint domain, at any worker count.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    Scenario s = golden_fleet(4);
    s.partition_threads = threads;
    EXPECT_EQ(fingerprint(s), 0x888b9e036d86e57aull) << "threads=" << threads;
  }
}

TEST(GoldenFingerprint, Fig3SerialKernel) {
  Scenario s = Scenario::paper_network();
  s.seed = 42;
  s.duration = 45 * kSecond;
  EXPECT_EQ(fingerprint(s), 0x52cae15aadbb65f8ull);
}

}  // namespace
}  // namespace ff::fleet
