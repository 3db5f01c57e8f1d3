#pragma once

// A scenario is everything an experiment needs except the controller:
// devices, network schedule, server configuration and background load.
// Factory functions encode the paper's experimental setups.

#include <cstdint>
#include <string>
#include <vector>

#include "ff/core/fleet_topology.h"
#include "ff/device/edge_device.h"
#include "ff/net/link.h"
#include "ff/net/netem.h"
#include "ff/server/edge_server.h"
#include "ff/server/load_generator.h"

namespace ff::core {

struct Scenario {
  std::string name{"scenario"};
  std::uint64_t seed{42};
  SimDuration duration{135 * kSecond};

  /// One entry per concurrently streaming device.
  std::vector<device::DeviceConfig> devices;

  /// Network conditions applied to every device's path.
  net::NetemSchedule network{net::NetemSchedule::constant({})};
  net::LinkConfig uplink_template{};
  net::LinkConfig downlink_template{};
  /// When true, all device uplinks contend on one shared wireless medium
  /// (a single AP) instead of independently shaped interfaces.
  bool shared_uplink_medium{false};
  /// Number of independent shared media ("APs") when shared_uplink_medium
  /// is set: device i contends on medium i % groups. 1 reproduces the
  /// single-AP ablation; more groups give a partitioned run independent
  /// contention domains to parallelize.
  std::size_t uplink_medium_groups{1};

  /// Partitions of the sim::PartitionedSimulator the run executes on.
  /// K >= 2 shards the entity graph into K partitions (server plus
  /// per-device-group shards) advanced in conservative time windows; links
  /// that cross partitions post through boundary edges. 0 is an alias for
  /// 1: one partition, no edges, one window. Results are bit-identical for
  /// every value and every thread count.
  std::size_t partitions{0};
  /// Worker threads for partitioned windows: 0 = one per partition
  /// (hardware-capped), 1 = serial. No effect on results.
  unsigned partition_threads{0};

  server::ServerConfig server{};
  server::LoadSchedule background_load{};
  server::LoadGeneratorConfig background{};

  /// Multi-server fleet description. When disabled (no servers) the
  /// experiment synthesizes a one-server topology from the `server` /
  /// `background*` fields above -- the M = 1 degenerate case, bit-identical
  /// to the historical single-server wiring. When enabled, the fields
  /// above are ignored in favor of the per-server ServerSpecs.
  FleetTopology fleet{};

  /// --- Paper setups -------------------------------------------------

  /// §IV-D / Fig. 3: three Pis streaming 4000 frames at 30 fps while the
  /// network walks Table V. `bandwidth_unit` scales the table's 10/4/1
  /// figures (defaults to Mbps; see DESIGN.md).
  [[nodiscard]] static Scenario paper_network(
      Bandwidth bandwidth_unit = Bandwidth::mbps(1.0));

  /// §IV-E / Fig. 4: same devices on a clean network while background
  /// request volume walks Table VI.
  [[nodiscard]] static Scenario paper_server_load();

  /// §III-B / Fig. 2: a single device under a clean network with 7% packet
  /// loss injected at t = 27 s, for controller-gain sweeps.
  [[nodiscard]] static Scenario paper_tuning();

  /// §IV-C "Combined Network and Server Measurements": both the Table V
  /// network schedule and the Table VI load schedule at once -- the
  /// experiment the paper mentions but omits for space.
  [[nodiscard]] static Scenario paper_combined(
      Bandwidth bandwidth_unit = Bandwidth::mbps(1.0));

  /// Heterogeneous multi-tenancy: the three Pis run different models
  /// (MobileNetV3Small / Large, EfficientNetB0), exercising the per-model
  /// batch queues ("we hit both model types", §IV-C.2).
  [[nodiscard]] static Scenario mixed_models(
      SimDuration duration = 60 * kSecond);

  /// A quiet single-device scenario for quickstarts and tests.
  [[nodiscard]] static Scenario ideal(SimDuration duration = 30 * kSecond);

  /// --- Helpers -------------------------------------------------------

  /// Appends a device with per-index naming; returns its index.
  std::size_t add_device(device::DeviceConfig config);

  /// Applies one frame spec to all devices.
  void set_frame_spec(const models::FrameSpec& spec);

  /// Range checks owned by the scenario, run by Experiment before it builds
  /// anything: at least one device, a positive duration and deadline,
  /// positive bandwidth and non-negative propagation delay on both link
  /// templates and every netem phase, a batch limit >= 1 on every server,
  /// and device source_fps in (0, 1e6] and background-load rates in
  /// [0, 1e6] (a faster rate's period rounds to zero SimTime ticks). NaN
  /// fails every rule. Throws std::invalid_argument naming the offending
  /// field and value. (Loss probabilities are already checked where they
  /// are set: NetemSchedule::add and the Link constructor.)
  void validate() const;
};

/// The three Raspberry Pis from paper Table II, streaming MobileNetV3Small
/// at 30 fps with a 4000-frame limit.
[[nodiscard]] std::vector<device::DeviceConfig> paper_device_trio();

}  // namespace ff::core
