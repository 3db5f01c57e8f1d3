#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ff/control/baselines.h"
#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/fleet/placement.h"
#include "ff/sweep/sweep.h"

namespace ff::fleet {
namespace {

using core::ExperimentResult;
using core::FleetTopology;
using core::Scenario;
using core::run_experiment;

/// Multi-device base with cross-partition traffic: four devices in two
/// shared-medium groups, background load, a mid-run loss burst.
Scenario fleet_scenario(std::uint64_t seed, std::size_t servers) {
  Scenario s = Scenario::ideal(15 * kSecond);
  s.name = "fleet-test";
  s.seed = seed;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 4; ++i) {
    device::DeviceConfig d = proto;
    d.name = "pi-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 2;
  s.network = net::NetemSchedule::loss_injection(6 * kSecond, 0.05,
                                                 Bandwidth::mbps(10.0));
  s.background_load = server::LoadSchedule::constant(Rate{30.0});
  if (servers > 0) {
    s.fleet = FleetTopology::uniform(s.server, servers);
    server::AdmissionConfig admission;
    admission.policy = server::AdmissionPolicy::kTokenBucket;
    admission.rate_fps = 90.0;
    admission.burst = 20.0;
    for (auto& spec : s.fleet.servers) {
      spec.config.admission = admission;
      spec.background_load = s.background_load;
      spec.background = s.background;
    }
    s.fleet.placement = least_loaded_placement();
  }
  return s;
}

std::uint64_t fingerprint(Scenario s, std::size_t partitions,
                          unsigned threads) {
  s.partitions = partitions;
  s.partition_threads = threads;
  const ExperimentResult r = run_experiment(
      s, core::make_controller_factory<control::FrameFeedbackController>());
  return sweep::result_fingerprint(r);
}

/// Acceptance criterion: the M = 1 fleet topology is the degenerate case
/// and reproduces the legacy single-server wiring bit for bit -- on the
/// single simulator and on the partitioned kernel.
TEST(Fleet, SingleServerFleetMatchesLegacyFingerprint) {
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}}) {
    Scenario legacy = fleet_scenario(42, 0);
    Scenario m1 = fleet_scenario(42, 0);
    m1.fleet = FleetTopology::uniform(m1.server, 1);
    m1.fleet.servers[0].background_load = m1.background_load;
    m1.fleet.servers[0].background = m1.background;
    EXPECT_EQ(fingerprint(std::move(legacy), k, 1),
              fingerprint(std::move(m1), k, 1))
        << "K=" << k;
  }
}

/// Determinism matrix: for each fleet size, every partition count and
/// thread count produces one bit-identical fingerprint.
TEST(Fleet, DeterminismMatrixAcrossServersPartitionsThreads) {
  for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    const std::uint64_t reference = fingerprint(fleet_scenario(42, m), 1, 1);
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
      for (const unsigned threads : {1u, 2u}) {
        EXPECT_EQ(reference, fingerprint(fleet_scenario(42, m), k, threads))
            << "M=" << m << " K=" << k << " threads=" << threads;
      }
    }
  }
}

/// Without a placement policy a device can only ever use its build-time
/// server, so only that path is built. Static placement places the same
/// way (round-robin) and never re-homes, but builds all M paths: the two
/// runs must agree on every result field, and differ in events only by
/// the t = phase-start netem events of the unbuilt links.
TEST(Fleet, UnreachablePathsAreNotBuilt) {
  constexpr std::size_t kServers = 4;
  const auto factory =
      core::make_controller_factory<control::FrameFeedbackController>();
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}}) {
    for (const unsigned threads : {1u, 2u}) {
      Scenario sparse = fleet_scenario(42, kServers);
      sparse.fleet.placement = nullptr;
      sparse.partitions = k;
      sparse.partition_threads = threads;
      Scenario dense = sparse;
      dense.fleet.placement = static_placement();
      const std::size_t devices = sparse.devices.size();
      const std::size_t phases = sparse.network.phases().size();
      ASSERT_EQ(phases, 2u);

      core::Experiment sparse_run(sparse, factory);
      for (std::size_t i = 0; i < devices; ++i) {
        core::FleetOffloadTransport& t = sparse_run.fleet_transport(i);
        ASSERT_EQ(t.server_count(), kServers);
        const std::size_t home = sparse_run.assigned_server(i);
        EXPECT_EQ(home, i % kServers);
        for (std::size_t srv = 0; srv < kServers; ++srv) {
          EXPECT_EQ(t.has_path(srv), srv == home) << "device " << i;
          if (srv == home) continue;
          EXPECT_THROW((void)t.path(srv), std::out_of_range);
          EXPECT_THROW(t.set_active(srv), std::out_of_range);
        }
        EXPECT_EQ(t.active(), home);
      }
      ExperimentResult a = sparse_run.run();
      ExperimentResult b = run_experiment(dense, factory);

      EXPECT_EQ(b.events_executed - a.events_executed,
                2 * devices * (kServers - 1) * phases)
          << "K=" << k << " threads=" << threads;
      a.events_executed = 0;
      b.events_executed = 0;
      EXPECT_EQ(sweep::result_fingerprint(a), sweep::result_fingerprint(b))
          << "K=" << k << " threads=" << threads;
    }
  }
}

/// A fleet run actually spreads work: every server of an M = 4 fleet
/// receives requests, and the server-side conservation identity holds.
TEST(Fleet, WorkSpreadsAcrossServersAndConserves) {
  Scenario s = fleet_scenario(42, 4);
  const ExperimentResult r = run_experiment(
      s, core::make_controller_factory<control::FrameFeedbackController>());
  ASSERT_EQ(r.servers.size(), 4u);
  for (const core::ServerResult& sr : r.servers) {
    EXPECT_GT(sr.stats.requests_received, 0u) << sr.name;
    EXPECT_TRUE(sr.conserved()) << sr.name;
  }
}

/// Admission rejections surface as typed responses and trigger
/// re-placement: a device hinted onto a starved server fails over to the
/// open one and stays there.
TEST(Fleet, RejectionTriggersReplacement) {
  Scenario s = Scenario::ideal(10 * kSecond);
  s.name = "fleet-rehome";
  s.seed = 7;
  s.fleet = FleetTopology::uniform(s.server, 2);
  // Server 0 admits essentially nothing; server 1 is wide open.
  s.fleet.servers[0].config.admission.policy =
      server::AdmissionPolicy::kTokenBucket;
  s.fleet.servers[0].config.admission.rate_fps = 0.1;
  s.fleet.servers[0].config.admission.burst = 1.0;
  s.fleet.placement_hints = {0};
  s.fleet.placement = least_loaded_placement();

  const ExperimentResult r = run_experiment(
      s, core::make_controller_factory<control::AlwaysOffloadController>());
  ASSERT_EQ(r.devices.size(), 1u);
  const core::DeviceResult& d = r.devices[0];
  EXPECT_EQ(d.initial_server, 0u);
  EXPECT_EQ(d.final_server, 1u);
  EXPECT_GT(d.totals.admission_rejections, 0u);
  // Admission rejections are a subset of load timeouts: device-side frame
  // conservation is unchanged.
  EXPECT_GE(d.totals.timeouts_load, d.totals.admission_rejections);
  EXPECT_TRUE(d.totals.conserved());
  EXPECT_GT(r.servers[0].admission.rejected, 0u);
  EXPECT_GT(r.servers[1].stats.requests_completed, 0u);
}

/// Per-tenant SLO accounting: member totals roll up exactly and the SLO
/// verdict follows the configured bounds.
TEST(Fleet, TenantTotalsRollUp) {
  Scenario s = fleet_scenario(42, 2);
  core::TenantSloSpec gold;
  gold.name = "gold";
  gold.devices = {0, 2};
  gold.min_goodput = 0.0;
  core::TenantSloSpec strict;
  strict.name = "strict";
  strict.devices = {1, 3};
  strict.min_goodput = 1.1;  // unsatisfiable on purpose
  s.fleet.tenants = {gold, strict};

  const ExperimentResult r = run_experiment(
      s, core::make_controller_factory<control::FrameFeedbackController>());
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].totals.frames_captured,
            r.devices[0].totals.frames_captured +
                r.devices[2].totals.frames_captured);
  EXPECT_TRUE(r.tenants[0].slo_met());
  EXPECT_FALSE(r.tenants[1].slo_met());
}

/// The sweep axes label and apply fleet sizes and placement policies.
TEST(Fleet, SweepAxesApply) {
  sweep::Axis servers = sweep::server_count_axis({1, 4});
  ASSERT_EQ(servers.values.size(), 2u);
  EXPECT_EQ(servers.values[1].label, "M=4");
  Scenario s = Scenario::ideal();
  servers.values[1].apply(s);
  EXPECT_EQ(s.fleet.server_count(), 4u);

  sweep::Axis placement = sweep::placement_axis(
      {{"least-loaded", least_loaded_placement()},
       {"static", static_placement()}});
  ASSERT_EQ(placement.values.size(), 2u);
  placement.values[0].apply(s);
  ASSERT_TRUE(static_cast<bool>(s.fleet.placement));
  EXPECT_EQ(s.fleet.placement()->name(), "least-loaded");
}

/// Placement policy unit behavior: least-loaded fills the emptiest
/// server and fails over around the ring, static honors its map.
TEST(Fleet, PlacementPolicies) {
  const device::DeviceConfig dev;
  std::vector<std::size_t> counts{2, 0, 1};
  core::PlacementView view;
  view.server_count = 3;
  view.assigned_counts = &counts;

  LeastLoadedPlacement least;
  EXPECT_EQ(least.place(0, dev, view), 1u);
  EXPECT_EQ(least.on_rejection(0, 2, 3, 1), 0u);
  EXPECT_EQ(least.on_rejection(0, 0, 1, 1), 0u);  // nowhere else to go

  StaticPlacement fixed({2, 1});
  EXPECT_EQ(fixed.place(0, dev, view), 2u);
  EXPECT_EQ(fixed.place(1, dev, view), 1u);
  EXPECT_EQ(fixed.place(5, dev, view), 2u);  // past the map: round-robin
  EXPECT_EQ(fixed.on_rejection(0, 2, 3, 1), 2u);  // static never re-homes
}

}  // namespace
}  // namespace ff::fleet
