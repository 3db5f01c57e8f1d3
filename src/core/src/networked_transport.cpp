#include "ff/core/networked_transport.h"

#include <utility>

namespace ff::core {
namespace {

/// Bit 62 of a downlink message id marks a load rejection (batch-formation
/// shedding); bit 61 marks an admission-control rejection. Together they
/// encode the typed OffloadReply without widening the wire format.
constexpr std::uint64_t kRejectBit = 1ULL << 62;
constexpr std::uint64_t kAdmissionBit = 1ULL << 61;
constexpr std::uint64_t kStatusMask = kRejectBit | kAdmissionBit;

std::uint64_t encode_status(server::RequestStatus status) {
  switch (status) {
    case server::RequestStatus::kCompleted:
      return 0;
    case server::RequestStatus::kRejected:
      return kRejectBit;
    case server::RequestStatus::kRejectedAdmission:
      return kAdmissionBit;
  }
  return 0;
}

device::OffloadReply decode_status(std::uint64_t id) {
  if ((id & kAdmissionBit) != 0) {
    return device::OffloadReply::kRejectedAdmission;
  }
  if ((id & kRejectBit) != 0) return device::OffloadReply::kRejectedLoad;
  return device::OffloadReply::kCompleted;
}

}  // namespace

NetworkedOffloadTransport::NetworkedOffloadTransport(
    sim::Simulator& device_sim, sim::Simulator& server_sim,
    server::EdgeServer& server, NetworkedTransportConfig config)
    : server_(server),
      config_(std::move(config)),
      path_(device_sim, server_sim, config_.uplink, config_.downlink,
            config_.name) {
  // Server side: a fully reassembled frame becomes an inference request;
  // its outcome is shipped back as a (small) downlink message.
  path_.uplink().set_on_message([this](std::uint64_t id, Bytes payload) {
    server::InferenceRequest req;
    req.request_id = id;
    req.client_id = config_.client_id;
    req.model = config_.model;
    req.payload = payload;
    server_.submit(std::move(req),
                   [this](const server::RequestOutcome& outcome) {
      const std::uint64_t response_id =
          outcome.request.request_id | encode_status(outcome.status);
      path_.downlink().send(response_id, Bytes{models::kResultBytes});
    });
  });

  // Device side: decode the status bits and hand the response up.
  path_.downlink().set_on_message([this](std::uint64_t id, Bytes) {
    if (on_response_) on_response_(id & ~kStatusMask, decode_status(id));
  });

  // A failed uplink send means the frame never (fully) reached the server.
  path_.uplink().set_on_send_result([this](std::uint64_t id, bool success) {
    if (!success && on_failure_) on_failure_(id);
  });
}

void NetworkedOffloadTransport::offload(std::uint64_t id, Bytes payload) {
  uplink().send(id, payload);
}

void NetworkedOffloadTransport::cancel(std::uint64_t id) {
  uplink().cancel(id);
}

}  // namespace ff::core
