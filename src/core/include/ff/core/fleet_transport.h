#pragma once

// Multi-server OffloadTransport: one slot per edge server of the fleet,
// holding a NetworkedOffloadTransport path to every server the device can
// ever be homed on (all of them under a placement policy, otherwise only
// its build-time server), plus an active-path selector the placement layer
// flips when a device is re-homed. Frames remember which path carried them
// so late cancels and responses route to the right server even across a
// re-home. With a single built path the wrapper is pass-through: it adds
// no events and no RNG draws, so the M = 1 fleet build stays bit-identical
// to the legacy single-server wiring.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ff/core/networked_transport.h"
#include "ff/device/offload_transport.h"
#include "ff/net/transport.h"

namespace ff::core {

class FleetOffloadTransport final : public device::OffloadTransport {
 public:
  /// One empty slot per server of the fleet.
  explicit FleetOffloadTransport(std::size_t server_count);

  /// Installs the path to server `server_index`; call once per reachable
  /// server before any traffic.
  void add_path(std::size_t server_index,
                std::unique_ptr<NetworkedOffloadTransport> path);

  /// Switches subsequent offloads to server `server_index`; throws
  /// std::out_of_range if that server has no built path. In-flight frames
  /// stay pinned to the path that carried them. Called from the device's
  /// own partition (control tick), never cross-thread.
  void set_active(std::size_t server_index);

  [[nodiscard]] std::size_t active() const { return active_; }
  [[nodiscard]] std::size_t server_count() const { return paths_.size(); }
  [[nodiscard]] bool has_path(std::size_t server_index) const {
    return server_index < paths_.size() && paths_[server_index] != nullptr;
  }
  /// The path to server `server_index`; throws std::out_of_range if that
  /// server has no built path.
  [[nodiscard]] NetworkedOffloadTransport& path(std::size_t server_index);

  /// Uplink channel stats summed across the built paths (one logical
  /// uplink per device, however many servers it talked to).
  [[nodiscard]] net::ChannelStats uplink_stats() const;

  void offload(std::uint64_t id, Bytes payload) override;
  void cancel(std::uint64_t id) override;
  void set_on_response(ResponseFn fn) override;
  void set_on_failure(FailureFn fn) override;

 private:
  /// Indexed by server; nullptr for a server the device cannot reach.
  std::vector<std::unique_ptr<NetworkedOffloadTransport>> paths_;
  std::size_t built_{0};
  std::size_t active_{0};
  /// Path each in-flight frame was sent on; only consulted (and only
  /// populated) when more than one path is built.
  std::unordered_map<std::uint64_t, std::size_t> frame_path_;
  ResponseFn on_response_;
  FailureFn on_failure_;
};

}  // namespace ff::core
