// Micro-benchmarks for the partitioned DES kernel: the same multi-device
// experiment executed at K = 0 (an alias for K = 1) and K = 1, 2, 4, 8
// partitions, with events/s as the headline. The scaling claim this
// backs: >= 2x events/s at K=4 over K=1; K=1 over K=0 should read ~1.0,
// since both run one partition with no boundary edges. A
// fleet-shaped experiment (1024 devices, 16 servers) reports the same
// ratios on the ROADMAP ladder's 1k rung. A synthetic kernel-only
// benchmark isolates window/barrier overhead from experiment entity costs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/sim/partition.h"

namespace {

using namespace ff;

/// A wide workload: many devices in as many shared-medium groups as
/// partitions, so every partition carries comparable event volume. Short
/// horizon -- the bench repeats it per iteration.
core::Scenario wide_scenario(std::size_t devices, std::size_t partitions) {
  core::Scenario s = core::Scenario::ideal(4 * kSecond);
  s.name = "micro-partition";
  s.seed = 42;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (std::size_t i = 0; i < devices; ++i) {
    device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = devices / 2;
  s.background_load = server::LoadSchedule::constant(Rate{60});
  s.partitions = partitions;
  s.partition_threads = 0;  // one worker per partition
  return s;
}

void BM_PartitionedExperiment(benchmark::State& state) {
  const auto partitions = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDevices = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const core::ExperimentResult r = core::run_experiment(
        wide_scenario(kDevices, partitions),
        core::make_controller_factory<control::FrameFeedbackController>());
    events += r.events_executed;
    benchmark::DoNotOptimize(r.events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["partitions"] = static_cast<double>(partitions);
}
BENCHMARK(BM_PartitionedExperiment)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The 1k-device fleet: 1024 devices in 128 shared-medium groups on a
/// clean 400 Mbps / 2 ms link, offloading to 16 uniform servers, 1 s
/// simulated. Server work spreads over partitions, unlike the 64-device
/// single-server workload above.
core::Scenario fleet_scenario(std::size_t partitions) {
  core::Scenario s = core::Scenario::ideal(kSecond);
  s.name = "micro-fleet";
  s.seed = 42;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (std::size_t i = 0; i < 1024; ++i) {
    device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 128;
  const net::LinkConditions link{Bandwidth::mbps(400.0), 0.0,
                                 2 * kMillisecond};
  s.network = net::NetemSchedule::constant(link);
  s.uplink_template.initial = link;
  s.downlink_template.initial = link;
  s.fleet = core::FleetTopology::uniform(s.server, 16);
  s.partitions = partitions;
  s.partition_threads = 0;  // one worker per partition
  return s;
}

void BM_FleetExperiment(benchmark::State& state) {
  const auto partitions = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const core::ExperimentResult r = core::run_experiment(
        fleet_scenario(partitions),
        core::make_controller_factory<control::FrameFeedbackController>());
    events += r.events_executed;
    benchmark::DoNotOptimize(r.events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["partitions"] = static_cast<double>(partitions);
}
BENCHMARK(BM_FleetExperiment)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Kernel-only scaling: K partitions each burn a self-rescheduling event
/// chain, exchanging a token once per lookahead window. Measures the
/// window/barrier machinery without entity costs.
void BM_PartitionedKernelChains(benchmark::State& state) {
  const auto partitions = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kEventsPerPartition = 200'000;
  constexpr SimDuration kLookahead = 2 * kMillisecond;
  constexpr SimDuration kEventSpacing = 10;  // microseconds
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::PartitionedSimulator ps(1, {partitions, 0});
    for (std::size_t p = 0; p < partitions; ++p) {
      ps.add_edge(p, (p + 1) % partitions, kLookahead);
    }
    for (std::size_t p = 0; p < partitions; ++p) {
      sim::Simulator& sim = ps.partition(p);
      struct Chain {
        sim::Simulator* sim;
        std::uint64_t remaining;
        void fire() {
          if (remaining == 0) return;
          --remaining;
          Chain next = *this;
          sim->schedule_in(kEventSpacing,
                           [next]() mutable { next.fire(); });
        }
      };
      Chain chain{&sim, kEventsPerPartition};
      sim.schedule_at(0, [chain]() mutable { chain.fire(); });
    }
    events += ps.run_until(static_cast<SimTime>(kEventsPerPartition) *
                           kEventSpacing * 2);
    benchmark::DoNotOptimize(ps.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["partitions"] = static_cast<double>(partitions);
}
BENCHMARK(BM_PartitionedKernelChains)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
