#pragma once

// Reliable message transport over lossy links.
//
// An offloaded frame is a message: it is fragmented into MTU packets, each
// retransmitted on an RTO until acknowledged. This is where NetEm-style
// loss turns into end-to-end latency inflation -- the mechanism behind the
// paper's network-induced timeouts (Tn).
//
// Fragments carry kDefaultMtuPayload bytes each. The RTO, its backoff
// cap, the retry budget, the reassembly timeout and the receiver's dedupe
// window are fixed in transport.cpp.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ff/net/link.h"
#include "ff/net/packet.h"
#include "ff/obs/trace.h"
#include "ff/sim/simulator.h"

namespace ff::net {

struct ChannelStats {
  std::uint64_t messages_sent{0};
  std::uint64_t sends_succeeded{0};   ///< fully acked at the sender
  std::uint64_t sends_failed{0};      ///< fragment retry budget exhausted
  std::uint64_t sends_cancelled{0};
  std::uint64_t messages_delivered{0};///< reassembled at the receiver
  std::uint64_t fragments_sent{0};    ///< includes retransmissions
  std::uint64_t retransmissions{0};
  std::uint64_t acks_received{0};
  std::uint64_t duplicate_fragments{0};
  std::uint64_t partials_expired{0};

  /// Accumulates another channel's counters (fleet transports report one
  /// logical uplink summed over their per-server paths).
  ChannelStats& operator+=(const ChannelStats& other) {
    messages_sent += other.messages_sent;
    sends_succeeded += other.sends_succeeded;
    sends_failed += other.sends_failed;
    sends_cancelled += other.sends_cancelled;
    messages_delivered += other.messages_delivered;
    fragments_sent += other.fragments_sent;
    retransmissions += other.retransmissions;
    acks_received += other.acks_received;
    duplicate_fragments += other.duplicate_fragments;
    partials_expired += other.partials_expired;
    return *this;
  }
};

/// One direction of reliable messaging: data packets ride `data_link`,
/// acks ride `ack_link`. The owner must route incoming packets to
/// `handle_data` / `handle_ack` (see DuplexPath).
///
/// Partitioning: the channel's two sides may live on different simulators
/// (taken from the links). Sender-side operations -- send, cancel, the
/// RTO timers, handle_ack -- execute on `data_link.simulator()`;
/// receiver-side operations -- handle_data, ack emission, reassembly GC
/// -- on `ack_link.simulator()`. The two sides touch disjoint state
/// (outbox vs inbox; disjoint ChannelStats fields), so a partitioned run
/// never races on a channel.
class ReliableChannel {
 public:
  /// Receiver-side delivery: (message_id, payload_bytes).
  using MessageFn = std::function<void(std::uint64_t, Bytes)>;
  /// Sender-side resolution: (message_id, success).
  using SendResultFn = std::function<void(std::uint64_t, bool)>;

  /// The sender side runs on `data_link.simulator()`, the receiver side
  /// on `ack_link.simulator()` (identical in unpartitioned runs).
  ReliableChannel(Link& data_link, Link& ack_link, std::uint64_t flow_id,
                  std::string name = "chan");

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_on_message(MessageFn fn) { on_message_ = std::move(fn); }
  void set_on_send_result(SendResultFn fn) { on_send_result_ = std::move(fn); }

  /// Sends a message of `payload` bytes. `message_id` must be unique per
  /// channel. Resolution arrives via the send-result callback.
  void send(std::uint64_t message_id, Bytes payload);

  /// Abandons retransmission for an in-flight message (e.g. its deadline
  /// passed). No send-result callback fires. No-op if unknown.
  void cancel(std::uint64_t message_id);

  /// True while the sender is still working on the message.
  [[nodiscard]] bool in_flight(std::uint64_t message_id) const;

  [[nodiscard]] std::uint64_t flow_id() const { return flow_id_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

  /// Attaches a trace sink for retransmit/failure events (nullptr
  /// detaches). Not owned.
  void attach_trace_sink(obs::TraceSink* sink) { sink_ = sink; }

  /// Packet ingress, called by the demux that owns the links.
  void handle_data(const Packet& packet);
  void handle_ack(const Packet& packet);

 private:
  struct OutMessage {
    std::uint32_t fragment_count{0};
    Bytes payload{};
    std::vector<bool> acked;
    std::vector<int> retries;
    std::uint32_t acked_count{0};
  };

  struct InMessage {
    std::uint32_t fragment_count{0};
    std::vector<bool> received;
    std::uint32_t received_count{0};
    Bytes payload{};
    SimTime first_fragment_at{0};
  };

  void transmit_fragment(std::uint64_t message_id, std::uint32_t fragment,
                         int attempt);
  void arm_rto(std::uint64_t message_id, std::uint32_t fragment, int attempt);
  void send_ack(std::uint64_t message_id, std::uint32_t fragment,
                std::uint32_t fragment_count);
  void remember_completed(std::uint64_t message_id);
  void gc_partials();
  [[nodiscard]] Bytes fragment_wire_size(const OutMessage& m,
                                         std::uint32_t fragment) const;

  sim::Simulator& send_sim_;  ///< data_link's simulator: sender-side ops
  sim::Simulator& recv_sim_;  ///< ack_link's simulator: receiver-side ops
  Link& data_link_;
  Link& ack_link_;
  std::uint64_t flow_id_;
  std::string name_;

  MessageFn on_message_;
  SendResultFn on_send_result_;

  std::unordered_map<std::uint64_t, OutMessage> outbox_;
  std::unordered_map<std::uint64_t, InMessage> inbox_;
  std::unordered_set<std::uint64_t> completed_;
  std::deque<std::uint64_t> completed_order_;
  ChannelStats stats_;
  obs::TraceSink* sink_{nullptr};
};

/// A <-> B duplex path: two links and two reliable channels (uplink A->B,
/// downlink B->A) with packet demuxing wired up.
class DuplexPath {
 public:
  DuplexPath(sim::Simulator& sim, LinkConfig forward, LinkConfig reverse,
             std::string name = "path");

  /// Partitioned form: the forward link (A's transmissions -- uplink data
  /// and downlink acks) serializes on `forward_sim`, the reverse link
  /// (B's transmissions) on `reverse_sim`. Bind each link to a boundary
  /// edge (Link::bind_boundary) to route deliveries across.
  DuplexPath(sim::Simulator& forward_sim, sim::Simulator& reverse_sim,
             LinkConfig forward, LinkConfig reverse,
             std::string name = "path");

  DuplexPath(const DuplexPath&) = delete;
  DuplexPath& operator=(const DuplexPath&) = delete;

  [[nodiscard]] Link& forward_link() { return forward_; }
  [[nodiscard]] Link& reverse_link() { return reverse_; }
  [[nodiscard]] ReliableChannel& uplink() { return uplink_; }
  [[nodiscard]] ReliableChannel& downlink() { return downlink_; }

  /// Applies conditions to both directions (NetEm shapes the interface,
  /// which affects both).
  void set_conditions(const LinkConditions& conditions);

  /// Both links, for NetemSchedule::apply.
  [[nodiscard]] std::vector<Link*> links() { return {&forward_, &reverse_}; }

  /// Attaches one trace sink to both links and both channels.
  void attach_trace_sink(obs::TraceSink* sink);

 private:
  Link forward_;
  Link reverse_;
  ReliableChannel uplink_;
  ReliableChannel downlink_;
};

}  // namespace ff::net
