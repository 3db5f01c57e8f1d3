#pragma once

// Unidirectional emulated link: FIFO serialization at a configurable rate,
// bounded queue with tail drop, stochastic loss and propagation delay.
// This is the NetEm stand-in -- bandwidth/loss changes mid-run reproduce
// the paper's `tc netem rate/loss` reconfiguration (Table V).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "ff/net/loss_model.h"
#include "ff/net/packet.h"
#include "ff/obs/trace.h"
#include "ff/sim/simulator.h"
#include "ff/util/stats.h"

namespace ff::sim {
class BoundaryEdge;
}  // namespace ff::sim

namespace ff::net {

class SharedMedium;

/// Dynamic link conditions (the NetEm knobs).
struct LinkConditions {
  Bandwidth bandwidth{Bandwidth::mbps(10.0)};
  double loss_probability{0.0};          ///< applied via BernoulliLoss
  SimDuration propagation_delay{2 * kMillisecond};
};

/// Throws std::invalid_argument naming `who` and the value unless
/// `loss_probability` lies in [0, 1]; NaN is rejected too.
void check_loss_probability(double loss_probability, const char* who);

struct LinkConfig {
  std::string name{"link"};
  LinkConditions initial{};
  std::size_t queue_limit{256};          ///< packets; tail drop beyond
};

struct LinkStats {
  std::uint64_t packets_offered{0};
  std::uint64_t packets_delivered{0};
  std::uint64_t packets_lost{0};         ///< random loss
  std::uint64_t packets_dropped_queue{0};///< tail drop
  std::uint64_t packets_purged{0};       ///< sender revoked stale packets
  std::int64_t bytes_delivered{0};
  StreamingStats queueing_delay_us{};    ///< enqueue -> start of service
  StreamingStats total_delay_us{};       ///< enqueue -> delivery
};

/// Ordering contract (what makes multi-link runs deterministic):
///
///  - Serialization is strictly FIFO per link; within one link, packets
///    enter service in send() order and no packet overtakes another.
///  - Every delivery carries a sim::DeliveryKey (deliver time, post time,
///    link id, per-link FIFO number) and runs in that order at the
///    receiver, after the receiver's internal events of the same
///    timestamp. No tie is ever broken by wall-clock, pointer value,
///    container iteration order or partition count.
///  - A link whose receiver lives on another partition (bind_boundary)
///    posts the delivery through the edge's mailbox under the same key;
///    any other link inserts it into its own simulator's delivery queue.
///    The receiver therefore observes an identical delivery sequence at
///    every partition count.
class Link {
 public:
  using DeliveryFn = std::function<void(const Packet&)>;

  /// `sim` must outlive the link. Throws std::invalid_argument when the
  /// initial loss probability lies outside [0, 1].
  Link(sim::Simulator& sim, LinkConfig config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Receiver callback invoked at delivery time.
  void set_receiver(DeliveryFn receiver) { receiver_ = std::move(receiver); }

  /// Offers a packet; false means tail-dropped (queue full).
  bool send(Packet packet);

  /// Applies new conditions to packets serialized from now on.
  void set_conditions(const LinkConditions& conditions);

  /// Replaces the random-loss process (e.g. Gilbert-Elliott); overrides the
  /// `loss_probability` of the current conditions.
  void set_loss_model(std::unique_ptr<LossModel> model);

  /// Removes still-queued packets of one message (the sender revoking
  /// frames whose deadline passed -- standard qdisc behaviour for a
  /// real-time video sender's own interface queue). The packet currently
  /// being serialized is not affected. Returns the number removed.
  std::size_t purge(std::uint64_t flow_id, std::uint64_t message_id);

  /// Attaches this link to a shared medium: serialization then requires
  /// an airtime grant, contending with the medium's other links. Must be
  /// called before any traffic. `medium` must outlive the link.
  void attach_medium(SharedMedium* medium);

  /// Called by the medium when airtime is granted; not for users.
  void medium_grant();

  /// Attaches a trace sink for drop/loss/purge events (nullptr detaches).
  /// Not owned.
  void attach_trace_sink(obs::TraceSink* sink) { sink_ = sink; }

  /// Sets this link's id in the delivery order (sim::DeliveryKey::link).
  /// Links that deliver to one simulator need distinct ids; Experiment
  /// numbers its links in creation order, which is the same at every
  /// partition count. Defaults to 0.
  void set_delivery_id(std::uint32_t id) { delivery_id_ = id; }

  /// Routes deliveries through a cross-partition mailbox instead of the
  /// home simulator (nullptr restores direct scheduling). The edge's
  /// min_delay must not exceed this link's minimum propagation delay over
  /// the run -- that is the lookahead contract; BoundaryEdge::post asserts
  /// it per delivery. Sender-side state (queue, stats fields written
  /// before delivery, RNG) stays on the home simulator; only the delivery
  /// action executes in the destination partition. `edge` must outlive
  /// the link's traffic.
  void bind_boundary(sim::BoundaryEdge* edge) { boundary_ = edge; }

  /// Simulator this link serializes on (the sender side's partition).
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  [[nodiscard]] const LinkConditions& conditions() const { return conditions_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool busy() const { return busy_; }

 private:
  /// Key of the queued-data index: purge() targets one message of one flow.
  struct FlowMessageKey {
    std::uint64_t flow_id;
    std::uint64_t message_id;

    friend bool operator==(const FlowMessageKey&,
                           const FlowMessageKey&) = default;
  };
  struct FlowMessageKeyHash {
    std::size_t operator()(const FlowMessageKey& k) const {
      std::uint64_t h = k.flow_id * 0x9E3779B97F4A7C15ull;
      h ^= k.message_id + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  void start_service();
  void serve_front();
  void finish_service(Packet packet);
  /// Delivery body, run at `deliver_at` on the receiver side (directly on
  /// the home simulator, or in the destination partition when a boundary
  /// is bound). Touches only receiver-side stats fields.
  void deliver(const Packet& packet, SimTime deliver_at);

  sim::Simulator& sim_;
  LinkConfig config_;
  LinkConditions conditions_;
  std::unique_ptr<LossModel> loss_;
  Rng rng_;
  DeliveryFn receiver_;
  std::deque<Packet> queue_;
  /// Queued kData packets per (flow, message): lets purge() reject misses
  /// in O(1) and stop scanning at the last match, instead of walking the
  /// whole interface queue per cancelled frame (quadratic during the
  /// Fig. 3 recovery phase's mass deadline expiry).
  std::unordered_map<FlowMessageKey, std::uint32_t, FlowMessageKeyHash>
      queued_data_;
  bool busy_{false};
  SharedMedium* medium_{nullptr};
  std::uint32_t delivery_id_{0};
  std::uint64_t next_fifo_{0};
  sim::BoundaryEdge* boundary_{nullptr};
  LinkStats stats_;
  obs::TraceSink* sink_{nullptr};
};

}  // namespace ff::net
