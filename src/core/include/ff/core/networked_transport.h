#pragma once

// Production OffloadTransport: frames travel device -> server over the
// emulated network, are classified by the multi-tenant edge server, and
// results (or rejection notices) travel back. One instance per device.

#include <cstdint>
#include <string>

#include "ff/device/offload_transport.h"
#include "ff/models/frame.h"
#include "ff/net/transport.h"
#include "ff/server/edge_server.h"
#include "ff/sim/simulator.h"

namespace ff::core {

struct NetworkedTransportConfig {
  std::string name{"path"};
  std::uint64_t client_id{0};
  models::ModelId model{models::ModelId::kMobileNetV3Small};
  net::LinkConfig uplink{};
  net::LinkConfig downlink{};
};

class NetworkedOffloadTransport final : public device::OffloadTransport {
 public:
  /// The device side (uplink serialization, response handling) runs on
  /// `device_sim`, the server side (downlink serialization, request
  /// submission) on `server_sim` -- which must be the server's own
  /// simulator; both are the same simulator in a one-partition run.
  /// Cross-partition routing is wired by binding the path's links to
  /// boundary edges (Link::bind_boundary). The simulators and `server`
  /// must outlive the transport.
  NetworkedOffloadTransport(sim::Simulator& device_sim,
                            sim::Simulator& server_sim,
                            server::EdgeServer& server,
                            NetworkedTransportConfig config);

  void offload(std::uint64_t id, Bytes payload) override;
  void cancel(std::uint64_t id) override;
  void set_on_response(ResponseFn fn) override { on_response_ = std::move(fn); }
  void set_on_failure(FailureFn fn) override { on_failure_ = std::move(fn); }

  /// The device<->server network path, for Netem schedule attachment.
  [[nodiscard]] net::DuplexPath& path() { return path_; }

  [[nodiscard]] const net::ChannelStats& uplink_stats() {
    return path_.uplink().stats();
  }

 private:
  [[nodiscard]] net::ReliableChannel& uplink() { return path_.uplink(); }

  server::EdgeServer& server_;
  NetworkedTransportConfig config_;
  net::DuplexPath path_;
  ResponseFn on_response_;
  FailureFn on_failure_;
  std::uint64_t next_response_seq_{0};
};

}  // namespace ff::core
