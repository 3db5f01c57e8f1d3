#pragma once

// Concrete placement policies for fleet topologies (ISSUE 9). The
// abstract PlacementPolicy contract lives in core (ff/core/
// fleet_topology.h) so the experiment runner never depends on this
// module; policies here are installed via Scenario::fleet.placement.
//
// Both policies decide from build-time state only, so re-placement
// on rejection (invoked concurrently from partition worker threads) is
// const, thread-safe and deterministic by construction: the failover
// target is a pure function of (current server, fleet size).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/core/fleet_topology.h"
#include "ff/server/reservation.h"

namespace ff::fleet {

/// Fixed device -> server map; devices past the end of the map (or with
/// no map at all) place round-robin. Never re-homes on rejection.
class StaticPlacement final : public core::PlacementPolicy {
 public:
  StaticPlacement() = default;
  explicit StaticPlacement(std::vector<std::size_t> assignments)
      : assignments_(std::move(assignments)) {}

  [[nodiscard]] std::string_view name() const override { return "static"; }

  [[nodiscard]] std::size_t place(std::size_t device_index,
                                  const device::DeviceConfig& device,
                                  const core::PlacementView& view) override;

 private:
  std::vector<std::size_t> assignments_;
};

/// Assigns each device to the server with the fewest devices so far
/// (ties break toward the lowest index). On rejection the device fails
/// over around a ring: current + 1 mod M.
class LeastLoadedPlacement final : public core::PlacementPolicy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "least-loaded";
  }

  [[nodiscard]] std::size_t place(std::size_t device_index,
                                  const device::DeviceConfig& device,
                                  const core::PlacementView& view) override;

  [[nodiscard]] std::size_t on_rejection(
      std::size_t device_index, std::size_t current_server,
      std::size_t server_count, std::uint64_t rejections_total) const override;
};

/// The manager's idealized capacity belief used by the reservation
/// comparison bench: MobileNetV3-Small GPU throughput at batch 15 (the
/// manager grants 90 % of it).
[[nodiscard]] server::ReservationConfig default_reservation_config();

/// One ReservationController per device against a shared manager, with
/// client id = device_index + 1 (id 0 is reserved). Extracted from
/// bench/comparison_reservation.cpp so experiments and benches share one
/// definition of the ATOMS-style baseline.
[[nodiscard]] core::ControllerFactory reservation_controller_factory(
    std::shared_ptr<server::ReservationManager> manager);

/// PlacementFactory adapters for Scenario::fleet.placement (factories
/// must be pure: each call returns a fresh policy).
[[nodiscard]] core::PlacementFactory static_placement(
    std::vector<std::size_t> assignments = {});
[[nodiscard]] core::PlacementFactory least_loaded_placement();

}  // namespace ff::fleet
