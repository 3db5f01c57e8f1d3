#include "ff/net/transport.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "ff/util/logging.h"

namespace ff::net {

namespace {

/// Base retransmit timeout.
constexpr SimDuration kRto = 100 * kMillisecond;
/// The RTO doubles per attempt, capped at kRto << kRtoBackoffCap: without
/// backoff, retransmissions of still-live messages can exceed link
/// capacity and keep it collapsed after conditions recover.
constexpr int kRtoBackoffCap = 5;
/// Retransmissions per fragment before the message fails.
constexpr int kMaxRetries = 8;
/// A partial message older than this is dropped from the receiver.
constexpr SimDuration kReassemblyTimeout = 3 * kSecond;
/// Completed message ids the receiver remembers to drop duplicates.
constexpr std::size_t kCompletedHistory = 4096;

}  // namespace

ReliableChannel::ReliableChannel(Link& data_link, Link& ack_link,
                                 std::uint64_t flow_id, std::string name)
    : send_sim_(data_link.simulator()),
      recv_sim_(ack_link.simulator()),
      data_link_(data_link),
      ack_link_(ack_link),
      flow_id_(flow_id),
      name_(std::move(name)) {}

void ReliableChannel::send(std::uint64_t message_id, Bytes payload) {
  assert(outbox_.find(message_id) == outbox_.end());
  ++stats_.messages_sent;

  OutMessage m;
  m.payload = payload;
  const std::int64_t mtu = kDefaultMtuPayload;
  m.fragment_count = static_cast<std::uint32_t>(
      std::max<std::int64_t>((payload.count + mtu - 1) / mtu, 1));
  m.acked.assign(m.fragment_count, false);
  m.retries.assign(m.fragment_count, 0);
  const std::uint32_t count = m.fragment_count;
  outbox_.emplace(message_id, std::move(m));

  for (std::uint32_t f = 0; f < count; ++f) {
    transmit_fragment(message_id, f, 0);
  }
}

Bytes ReliableChannel::fragment_wire_size(const OutMessage& m,
                                          std::uint32_t fragment) const {
  const std::int64_t mtu = kDefaultMtuPayload;
  std::int64_t chunk = mtu;
  if (fragment + 1 == m.fragment_count) {
    chunk = m.payload.count - mtu * (m.fragment_count - 1);
    chunk = std::clamp<std::int64_t>(chunk, 1, mtu);
  }
  return Bytes{chunk + kHeaderBytes};
}

void ReliableChannel::transmit_fragment(std::uint64_t message_id,
                                        std::uint32_t fragment, int attempt) {
  const auto it = outbox_.find(message_id);
  if (it == outbox_.end() || it->second.acked[fragment]) return;

  Packet p;
  p.flow_id = flow_id_;
  p.message_id = message_id;
  p.fragment_index = fragment;
  p.fragment_count = it->second.fragment_count;
  p.kind = PacketKind::kData;
  p.size = fragment_wire_size(it->second, fragment);

  ++stats_.fragments_sent;
  if (attempt > 0) {
    ++stats_.retransmissions;
    if (sink_) {
      sink_->emit(
          obs::TraceEvent(send_sim_.now(), obs::ev::kNetRetransmit, name_)
              .with_id(message_id)
              .with("frag", fragment)
              .with("attempt", attempt));
    }
  }
  // A tail drop behaves exactly like random loss: the RTO repairs it.
  (void)data_link_.send(p);
  arm_rto(message_id, fragment, attempt);
}

void ReliableChannel::arm_rto(std::uint64_t message_id, std::uint32_t fragment,
                              int attempt) {
  const int shift = std::min(attempt, kRtoBackoffCap);
  const SimDuration rto = kRto << shift;
  send_sim_.schedule_in(rto, [this, message_id, fragment, attempt] {
    const auto it = outbox_.find(message_id);
    if (it == outbox_.end() || it->second.acked[fragment]) return;
    if (it->second.retries[fragment] >= kMaxRetries) {
      ++stats_.sends_failed;
      FF_DEBUG(name_) << "message " << message_id << " failed (fragment "
                      << fragment << " exhausted retries)";
      if (sink_) {
        sink_->emit(
            obs::TraceEvent(send_sim_.now(), obs::ev::kNetSendFailed, name_)
                .with_id(message_id)
                .with("frag", fragment));
      }
      outbox_.erase(it);
      (void)data_link_.purge(flow_id_, message_id);
      if (on_send_result_) on_send_result_(message_id, false);
      return;
    }
    ++it->second.retries[fragment];
    transmit_fragment(message_id, fragment, attempt + 1);
  });
}

void ReliableChannel::cancel(std::uint64_t message_id) {
  if (outbox_.erase(message_id) > 0) {
    ++stats_.sends_cancelled;
    // Revoke the message's unsent fragments from our own interface queue:
    // a stale frame must not starve live ones.
    (void)data_link_.purge(flow_id_, message_id);
  }
}

bool ReliableChannel::in_flight(std::uint64_t message_id) const {
  return outbox_.find(message_id) != outbox_.end();
}

void ReliableChannel::handle_ack(const Packet& packet) {
  ++stats_.acks_received;
  const auto it = outbox_.find(packet.message_id);
  if (it == outbox_.end()) return;
  OutMessage& m = it->second;
  if (packet.fragment_index >= m.fragment_count) return;
  if (m.acked[packet.fragment_index]) return;
  m.acked[packet.fragment_index] = true;
  ++m.acked_count;
  if (m.acked_count == m.fragment_count) {
    ++stats_.sends_succeeded;
    outbox_.erase(it);
    // Drop superseded retransmissions still sitting in the queue.
    (void)data_link_.purge(flow_id_, packet.message_id);
    if (on_send_result_) on_send_result_(packet.message_id, true);
  }
}

void ReliableChannel::handle_data(const Packet& packet) {
  // Always ack, even duplicates/late fragments: the sender may have missed
  // an earlier ack.
  send_ack(packet.message_id, packet.fragment_index, packet.fragment_count);

  if (completed_.count(packet.message_id)) {
    ++stats_.duplicate_fragments;
    return;
  }

  auto [it, inserted] = inbox_.try_emplace(packet.message_id);
  InMessage& m = it->second;
  if (inserted) {
    m.fragment_count = packet.fragment_count;
    m.received.assign(m.fragment_count, false);
    m.first_fragment_at = recv_sim_.now();
    gc_partials();
  }
  if (packet.fragment_index >= m.fragment_count ||
      m.received[packet.fragment_index]) {
    ++stats_.duplicate_fragments;
    return;
  }
  m.received[packet.fragment_index] = true;
  ++m.received_count;
  m.payload =
      m.payload +
      Bytes{std::max<std::int64_t>(packet.size.count - kHeaderBytes, 0)};

  if (m.received_count == m.fragment_count) {
    const Bytes payload = m.payload;
    const std::uint64_t id = packet.message_id;
    inbox_.erase(it);
    remember_completed(id);
    ++stats_.messages_delivered;
    if (on_message_) on_message_(id, payload);
  }
}

void ReliableChannel::send_ack(std::uint64_t message_id, std::uint32_t fragment,
                               std::uint32_t fragment_count) {
  Packet ack;
  ack.flow_id = flow_id_;
  ack.message_id = message_id;
  ack.fragment_index = fragment;
  ack.fragment_count = fragment_count;
  ack.kind = PacketKind::kAck;
  ack.size = Bytes{kHeaderBytes + 8};
  (void)ack_link_.send(ack);
}

void ReliableChannel::remember_completed(std::uint64_t message_id) {
  completed_.insert(message_id);
  completed_order_.push_back(message_id);
  while (completed_order_.size() > kCompletedHistory) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

void ReliableChannel::gc_partials() {
  const SimTime cutoff = recv_sim_.now() - kReassemblyTimeout;
  for (auto it = inbox_.begin(); it != inbox_.end();) {
    if (it->second.first_fragment_at < cutoff) {
      ++stats_.partials_expired;
      it = inbox_.erase(it);
    } else {
      ++it;
    }
  }
}

DuplexPath::DuplexPath(sim::Simulator& sim, LinkConfig forward,
                       LinkConfig reverse, std::string name)
    : DuplexPath(sim, sim, std::move(forward), std::move(reverse),
                 std::move(name)) {}

DuplexPath::DuplexPath(sim::Simulator& forward_sim, sim::Simulator& reverse_sim,
                       LinkConfig forward, LinkConfig reverse,
                       std::string name)
    : forward_(forward_sim, std::move(forward)),
      reverse_(reverse_sim, std::move(reverse)),
      uplink_(forward_, reverse_, 0, name + "/up"),
      downlink_(reverse_, forward_, 1, name + "/down") {
  // Forward link carries uplink data and downlink acks.
  forward_.set_receiver([this](const Packet& p) {
    if (p.kind == PacketKind::kData) {
      uplink_.handle_data(p);
    } else {
      downlink_.handle_ack(p);
    }
  });
  // Reverse link carries downlink data and uplink acks.
  reverse_.set_receiver([this](const Packet& p) {
    if (p.kind == PacketKind::kData) {
      downlink_.handle_data(p);
    } else {
      uplink_.handle_ack(p);
    }
  });
}

void DuplexPath::set_conditions(const LinkConditions& conditions) {
  forward_.set_conditions(conditions);
  reverse_.set_conditions(conditions);
}

void DuplexPath::attach_trace_sink(obs::TraceSink* sink) {
  forward_.attach_trace_sink(sink);
  reverse_.attach_trace_sink(sink);
  uplink_.attach_trace_sink(sink);
  downlink_.attach_trace_sink(sink);
}

}  // namespace ff::net
