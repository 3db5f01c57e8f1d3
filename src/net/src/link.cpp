#include "ff/net/link.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ff/net/shared_medium.h"
#include "ff/sim/partition.h"
#include "ff/util/logging.h"

namespace ff::net {

void check_loss_probability(double loss_probability, const char* who) {
  // Written so that NaN, which fails every comparison, is rejected.
  if (!(loss_probability >= 0.0 && loss_probability <= 1.0)) {
    std::ostringstream msg;
    msg << who << ": loss probability " << loss_probability
        << " is outside [0, 1]";
    throw std::invalid_argument(msg.str());
  }
}

Link::Link(sim::Simulator& sim, LinkConfig config)
    : sim_(sim),
      config_(std::move(config)),
      conditions_(config_.initial),
      loss_(make_bernoulli_loss(conditions_.loss_probability)),
      rng_(sim.make_rng("link/" + config_.name)) {
  check_loss_probability(conditions_.loss_probability, "Link");
}

bool Link::send(Packet packet) {
  ++stats_.packets_offered;
  if (queue_.size() >= config_.queue_limit) {
    ++stats_.packets_dropped_queue;
    FF_TRACE(config_.name) << "tail drop msg=" << packet.message_id
                           << " frag=" << packet.fragment_index;
    if (sink_) {
      sink_->emit(obs::TraceEvent(sim_.now(), obs::ev::kNetTailDrop,
                                  config_.name)
                      .with_id(packet.message_id)
                      .with("frag", packet.fragment_index));
    }
    return false;
  }
  packet.enqueued_at = sim_.now();
  if (packet.kind == PacketKind::kData) {
    ++queued_data_[FlowMessageKey{packet.flow_id, packet.message_id}];
  }
  queue_.push_back(packet);
  if (!busy_) start_service();
  return true;
}

void Link::set_conditions(const LinkConditions& conditions) {
  conditions_ = conditions;
  if (auto* bern = dynamic_cast<BernoulliLoss*>(loss_.get())) {
    bern->set_probability(conditions.loss_probability);
  }
}

void Link::set_loss_model(std::unique_ptr<LossModel> model) {
  loss_ = std::move(model);
}

std::size_t Link::purge(std::uint64_t flow_id, std::uint64_t message_id) {
  const auto indexed = queued_data_.find(FlowMessageKey{flow_id, message_id});
  if (indexed == queued_data_.end()) return 0;
  const std::size_t removed = indexed->second;
  const auto matches = [&](const Packet& p) {
    return p.flow_id == flow_id && p.message_id == message_id &&
           p.kind == PacketKind::kData;
  };
  // The index says exactly `removed` matches are queued; scan only up to
  // the last one (in deadline-expiry order that is near the queue front),
  // then compact that prefix in one pass.
  std::size_t remaining = removed;
  auto scan_end = queue_.begin();
  while (remaining > 0) {
    if (matches(*scan_end)) --remaining;
    ++scan_end;
  }
  queue_.erase(std::remove_if(queue_.begin(), scan_end, matches), scan_end);
  queued_data_.erase(indexed);
  stats_.packets_purged += removed;
  if (sink_) {
    sink_->emit(
        obs::TraceEvent(sim_.now(), obs::ev::kNetPurge, config_.name)
            .with_id(message_id)
            .with("packets", static_cast<double>(removed)));
  }
  return removed;
}

void Link::attach_medium(SharedMedium* medium) { medium_ = medium; }

void Link::medium_grant() { serve_front(); }

void Link::start_service() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  if (medium_) {
    // Contend for airtime; serve_front() runs on grant.
    medium_->request(this);
  } else {
    serve_front();
  }
}

void Link::serve_front() {
  // A purge may have emptied the queue while we waited for the grant.
  if (queue_.empty()) {
    if (medium_) medium_->release(this);
    busy_ = false;
    return;
  }
  Packet packet = queue_.front();
  queue_.pop_front();
  if (packet.kind == PacketKind::kData) {
    const auto it =
        queued_data_.find(FlowMessageKey{packet.flow_id, packet.message_id});
    if (it != queued_data_.end() && --it->second == 0) queued_data_.erase(it);
  }
  stats_.queueing_delay_us.add(
      static_cast<double>(sim_.now() - packet.enqueued_at));

  const SimDuration ser = conditions_.bandwidth.serialization_time(packet.size);
  sim_.schedule_in(ser, [this, packet] {
    if (medium_) medium_->release(this);
    finish_service(packet);
    start_service();
  });
}

void Link::finish_service(Packet packet) {
  if (loss_->drop(rng_)) {
    ++stats_.packets_lost;
    FF_TRACE(config_.name) << "loss msg=" << packet.message_id
                           << " frag=" << packet.fragment_index;
    if (sink_) {
      sink_->emit(obs::TraceEvent(sim_.now(), obs::ev::kNetLoss, config_.name)
                      .with_id(packet.message_id)
                      .with("frag", packet.fragment_index));
    }
    return;
  }
  const SimTime deliver_at =
      sim_.now() + std::max<SimDuration>(conditions_.propagation_delay, 0);
  const sim::DeliveryKey key{deliver_at, sim_.now(), next_fifo_++,
                             delivery_id_};
  auto action = [this, packet, deliver_at] { deliver(packet, deliver_at); };
  if (boundary_ != nullptr) {
    boundary_->post(key, sim::InlineTask(std::move(action)));
  } else {
    sim_.schedule_delivery(key, std::move(action));
  }
}

void Link::deliver(const Packet& packet, SimTime deliver_at) {
  ++stats_.packets_delivered;
  stats_.bytes_delivered += packet.size.count;
  stats_.total_delay_us.add(
      static_cast<double>(deliver_at - packet.enqueued_at));
  if (receiver_) receiver_(packet);
}

}  // namespace ff::net
