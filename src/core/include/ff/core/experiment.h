#pragma once

// Experiment runner: instantiates a scenario on the DES kernel, attaches a
// controller to every device, runs it, and returns per-device time series
// plus summary statistics -- the raw material of every figure and table.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ff/control/controller.h"
#include "ff/core/fleet_topology.h"
#include "ff/core/fleet_transport.h"
#include "ff/core/networked_transport.h"
#include "ff/core/scenario.h"
#include "ff/device/edge_device.h"
#include "ff/net/shared_medium.h"
#include "ff/net/transport.h"
#include "ff/obs/trace.h"
#include "ff/server/edge_server.h"
#include "ff/server/load_generator.h"
#include "ff/sim/partition.h"
#include "ff/sim/simulator.h"
#include "ff/sim/timer.h"
#include "ff/util/time_series.h"

namespace ff::core {

/// Produces a fresh controller per device; called once per device at
/// experiment construction.
using ControllerFactory =
    std::function<std::unique_ptr<control::Controller>(
        std::size_t device_index)>;

/// Convenience: same controller type with the same settings everywhere.
template <class C, class... Args>
[[nodiscard]] ControllerFactory make_controller_factory(Args... args) {
  return [=](std::size_t) { return std::make_unique<C>(args...); };
}

struct DeviceResult {
  std::string name;
  std::string controller;
  device::TelemetryTotals totals{};
  device::OffloadClientStats offload{};
  net::ChannelStats uplink{};  ///< summed over the device's server paths
  SeriesBundle series;  ///< "P", "Pl", "Po_*", "T", "Tn", "Tl", "cpu",
                        ///< "quality", "accuracy", "power_w"
  double energy_joules{0.0};  ///< integrated electrical draw over the run
  /// Server the placement layer assigned at build / was using at the end
  /// (both 0 outside fleet scenarios; differing values mean the device
  /// was re-homed after admission rejections).
  std::size_t initial_server{0};
  std::size_t final_server{0};

  /// Fraction of captured frames that produced a result within deadline.
  [[nodiscard]] double goodput_fraction() const;

  /// Mean successful inference rate over the run (from the P series).
  [[nodiscard]] double mean_throughput() const;

  /// Joules per successful inference (energy efficiency of the policy).
  [[nodiscard]] double joules_per_inference() const;
};

/// Per-server summary. `stats.requests_received` counts device offloads
/// and background load together, so the server-side conservation identity
///   received == completed + rejected + admission_rejected
///             + queue_depth_at_end + in_flight_batch_at_end
/// holds exactly per server and summed across the fleet.
struct ServerResult {
  std::string name;
  server::ServerStats stats{};
  double gpu_utilization{0.0};
  server::AdmissionStats admission{};
  std::uint64_t queue_depth_at_end{0};
  std::uint64_t in_flight_batch_at_end{0};

  [[nodiscard]] bool conserved() const {
    return stats.requests_received ==
           stats.requests_completed + stats.requests_rejected +
               stats.requests_admission_rejected + queue_depth_at_end +
               in_flight_batch_at_end;
  }
};

/// Per-tenant SLO accounting: member devices' totals rolled into one.
struct TenantResult {
  std::string name;
  device::TelemetryTotals totals{};
  double mean_throughput_fps{0.0};  ///< summed member mean P
  /// SLO thresholds echoed from the TenantSloSpec for slo_met().
  // ff-lint: allow(fingerprint-exempt) config echo, not measured output
  double min_goodput{0.0};
  // ff-lint: allow(fingerprint-exempt) config echo, not measured output
  double min_throughput_fps{0.0};

  [[nodiscard]] double goodput_fraction() const {
    if (totals.frames_captured == 0) return 0.0;
    return static_cast<double>(totals.successes()) /
           static_cast<double>(totals.frames_captured);
  }
  [[nodiscard]] bool slo_met() const {
    return goodput_fraction() >= min_goodput &&
           mean_throughput_fps >= min_throughput_fps;
  }
};

struct ExperimentResult {
  std::string scenario;
  std::uint64_t seed{0};
  SimTime duration{0};
  std::uint64_t events_executed{0};
  std::vector<DeviceResult> devices;
  /// One entry per edge server (always at least one; a single-server run
  /// lands in servers[0]).
  std::vector<ServerResult> servers;
  std::vector<TenantResult> tenants;

  /// Aggregate mean throughput across devices.
  [[nodiscard]] double total_mean_throughput() const;

  [[nodiscard]] const DeviceResult& device(std::size_t i) const {
    return devices.at(i);
  }
};

class Experiment {
 public:
  Experiment(Scenario scenario, ControllerFactory controllers);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs to the scenario horizon and collects results. Callable once.
  [[nodiscard]] ExperimentResult run();

  /// Attaches one trace sink to every instrumented component -- devices
  /// (frame lifecycle), server (batching/rejection), links and transport
  /// channels (drops/retransmits) -- and enables per-tick controller
  /// records (ctl.tick with e/u/Po). Call before run(); nullptr detaches.
  /// The sink is not owned and must outlive the experiment.
  void set_trace_sink(obs::TraceSink* sink);

  /// Access to live objects between construction and run(), for tests and
  /// custom instrumentation: partition 0, the server's partition (the only
  /// one when Scenario::partitions <= 1).
  [[nodiscard]] sim::Simulator& simulator() { return psim_.partition(0); }

  /// The kernel driver; never null. Scenario::partitions == 0 runs it with
  /// one partition, exactly as 1 does.
  [[nodiscard]] sim::PartitionedSimulator* partitioned_simulator() {
    return &psim_;
  }
  [[nodiscard]] server::EdgeServer& server() { return *servers_.at(0); }
  [[nodiscard]] server::EdgeServer& server(std::size_t s) {
    return *servers_.at(s);
  }
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  [[nodiscard]] device::EdgeDevice& device(std::size_t i) {
    return *rigs_.at(i)->device;
  }
  [[nodiscard]] control::Controller& controller(std::size_t i) {
    return *rigs_.at(i)->controller;
  }
  /// The device's currently active server path.
  [[nodiscard]] NetworkedOffloadTransport& transport(std::size_t i) {
    FleetOffloadTransport& t = *rigs_.at(i)->transport;
    return t.path(t.active());
  }
  [[nodiscard]] FleetOffloadTransport& fleet_transport(std::size_t i) {
    return *rigs_.at(i)->transport;
  }
  /// Server the device is currently homed on (follows re-placement).
  [[nodiscard]] std::size_t assigned_server(std::size_t i) const {
    return rigs_.at(i)->transport->active();
  }
  [[nodiscard]] std::size_t device_count() const { return rigs_.size(); }

 private:
  struct DeviceRig {
    std::size_t index{0};
    /// The partition this rig's entities execute on.
    std::size_t partition{0};
    /// One NetworkedOffloadTransport path per reachable server behind the
    /// fleet selector: every server under a placement policy, otherwise
    /// only the build-time one. A single built path is pass-through.
    std::unique_ptr<FleetOffloadTransport> transport;
    std::unique_ptr<device::EdgeDevice> device;
    std::unique_ptr<control::Controller> controller;
    std::unique_ptr<sim::PeriodicTimer> control_timer;
    /// Samples this rig's series on its own partition; one timer per rig
    /// keeps the event count independent of the partition count.
    std::unique_ptr<sim::PeriodicTimer> sample_timer;
    SeriesBundle series;
    models::EnergyMeter energy;
    std::size_t initial_server{0};
    /// Admission rejections already reacted to (re-placement edge detect).
    std::uint64_t admission_rejections_seen{0};
  };

  void resolve_topology();
  [[nodiscard]] NetworkedTransportConfig path_config(
      std::size_t device_index, const device::DeviceConfig& dconf,
      std::size_t server_index) const;
  /// Wires the fleet onto the kernel's partitions, numbering every link
  /// in creation order and binding only the links that cross partitions
  /// to boundary edges.
  void build();
  void control_tick(DeviceRig& rig);
  void maybe_rehome(DeviceRig& rig);
  void sample_rig(DeviceRig& rig);

  Scenario scenario_;
  ControllerFactory factory_;
  sim::PartitionedSimulator psim_;
  /// Effective topology: Scenario::fleet, or one spec synthesized from
  /// the legacy single-server fields.
  std::vector<ServerSpec> specs_;
  std::vector<std::unique_ptr<server::EdgeServer>> servers_;
  std::vector<std::unique_ptr<server::LoadGenerator>> loads_;
  std::unique_ptr<PlacementPolicy> placement_;
  /// Build-time device -> server assignment, one entry per device.
  std::vector<std::size_t> assignments_;
  /// Shared uplink media ("APs"); device i contends on medium i % size().
  std::vector<std::unique_ptr<net::SharedMedium>> uplink_media_;
  std::vector<std::unique_ptr<DeviceRig>> rigs_;
  /// Wraps the user's sink when several workers emit concurrently.
  std::unique_ptr<obs::SynchronizedTraceSink> synced_sink_;
  obs::TraceSink* trace_sink_{nullptr};
  bool ran_{false};
};

/// One-call convenience wrapper.
[[nodiscard]] ExperimentResult run_experiment(Scenario scenario,
                                              ControllerFactory controllers);

}  // namespace ff::core
