#include "ff/core/fleet_transport.h"

#include <stdexcept>
#include <utility>

namespace ff::core {

FleetOffloadTransport::FleetOffloadTransport(std::size_t server_count)
    : paths_(server_count) {}

void FleetOffloadTransport::add_path(
    std::size_t server_index,
    std::unique_ptr<NetworkedOffloadTransport> path) {
  if (server_index >= paths_.size() || paths_[server_index] != nullptr) {
    throw std::out_of_range(
        "FleetOffloadTransport: no free slot for this server path");
  }
  NetworkedOffloadTransport* raw = path.get();
  paths_[server_index] = std::move(path);
  ++built_;
  // Responses and failures funnel into the shared handlers regardless of
  // which server produced them; the routing map is cleaned up first so a
  // frame resolved on an old path does not leak an entry.
  raw->set_on_response([this](std::uint64_t id, device::OffloadReply reply) {
    if (built_ > 1) frame_path_.erase(id);
    if (on_response_) on_response_(id, reply);
  });
  raw->set_on_failure([this](std::uint64_t id) {
    if (built_ > 1) frame_path_.erase(id);
    if (on_failure_) on_failure_(id);
  });
}

void FleetOffloadTransport::set_active(std::size_t server_index) {
  if (!has_path(server_index)) {
    throw std::out_of_range("FleetOffloadTransport: no such server path");
  }
  active_ = server_index;
}

NetworkedOffloadTransport& FleetOffloadTransport::path(
    std::size_t server_index) {
  if (!has_path(server_index)) {
    throw std::out_of_range("FleetOffloadTransport: no such server path");
  }
  return *paths_[server_index];
}

net::ChannelStats FleetOffloadTransport::uplink_stats() const {
  net::ChannelStats sum{};
  for (const auto& path : paths_) {
    if (path) sum += path->uplink_stats();
  }
  return sum;
}

void FleetOffloadTransport::offload(std::uint64_t id, Bytes payload) {
  if (built_ > 1) frame_path_[id] = active_;
  paths_[active_]->offload(id, payload);
}

void FleetOffloadTransport::cancel(std::uint64_t id) {
  if (built_ > 1) {
    const auto it = frame_path_.find(id);
    if (it != frame_path_.end()) {
      const std::size_t path = it->second;
      frame_path_.erase(it);
      paths_[path]->cancel(id);
      return;
    }
  }
  paths_[active_]->cancel(id);
}

void FleetOffloadTransport::set_on_response(ResponseFn fn) {
  on_response_ = std::move(fn);
}

void FleetOffloadTransport::set_on_failure(FailureFn fn) {
  on_failure_ = std::move(fn);
}

}  // namespace ff::core
