#include "ff/fleet/placement.h"

#include <stdexcept>

#include "ff/control/reservation_controller.h"
#include "ff/models/model_spec.h"

namespace ff::fleet {

std::size_t StaticPlacement::place(std::size_t device_index,
                                   const device::DeviceConfig& device,
                                   const core::PlacementView& view) {
  (void)device;
  if (view.server_count == 0) {
    throw std::invalid_argument("StaticPlacement: empty fleet");
  }
  if (device_index < assignments_.size()) return assignments_[device_index];
  return device_index % view.server_count;
}

std::size_t LeastLoadedPlacement::place(std::size_t device_index,
                                        const device::DeviceConfig& device,
                                        const core::PlacementView& view) {
  (void)device_index;
  (void)device;
  if (view.server_count == 0 || view.assigned_counts == nullptr) {
    throw std::invalid_argument("LeastLoadedPlacement: empty fleet");
  }
  std::size_t best = 0;
  for (std::size_t s = 1; s < view.assigned_counts->size(); ++s) {
    if ((*view.assigned_counts)[s] < (*view.assigned_counts)[best]) best = s;
  }
  return best;
}

std::size_t LeastLoadedPlacement::on_rejection(
    std::size_t device_index, std::size_t current_server,
    std::size_t server_count, std::uint64_t rejections_total) const {
  (void)device_index;
  (void)rejections_total;
  if (server_count <= 1) return current_server;
  return (current_server + 1) % server_count;
}

server::ReservationConfig default_reservation_config() {
  return {models::gpu_throughput(
      models::get_model(models::ModelId::kMobileNetV3Small), 15)};
}

core::ControllerFactory reservation_controller_factory(
    std::shared_ptr<server::ReservationManager> manager) {
  if (!manager) {
    throw std::invalid_argument(
        "reservation_controller_factory: null manager");
  }
  return [manager](std::size_t device_index) {
    return std::make_unique<control::ReservationController>(
        *manager, device_index + 1);
  };
}

core::PlacementFactory static_placement(std::vector<std::size_t> assignments) {
  return [assignments]() {
    return std::make_unique<StaticPlacement>(assignments);
  };
}

core::PlacementFactory least_loaded_placement() {
  return []() { return std::make_unique<LeastLoadedPlacement>(); };
}

}  // namespace ff::fleet
