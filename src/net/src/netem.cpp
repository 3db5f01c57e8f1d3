#include "ff/net/netem.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ff::net {

NetemSchedule::NetemSchedule(std::vector<NetemPhase> phases)
    : phases_(std::move(phases)) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    check_loss_probability(phases_[i].conditions.loss_probability,
                           "NetemSchedule");
    if (i > 0 && phases_[i].start < phases_[i - 1].start) {
      throw std::invalid_argument("NetemSchedule: phases out of order");
    }
  }
}

NetemSchedule& NetemSchedule::add(SimTime start, LinkConditions conditions,
                                  std::string label) {
  check_loss_probability(conditions.loss_probability, "NetemSchedule");
  if (!phases_.empty() && start < phases_.back().start) {
    throw std::invalid_argument("NetemSchedule: phases out of order");
  }
  phases_.push_back(NetemPhase{start, conditions, std::move(label)});
  return *this;
}

LinkConditions NetemSchedule::at(SimTime t) const {
  if (phases_.empty()) return LinkConditions{};
  return phases_[phase_index_at(t)].conditions;
}

std::size_t NetemSchedule::phase_index_at(SimTime t) const {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].start <= t) idx = i;
  }
  return idx;
}

void NetemSchedule::apply(Link& link) const {
  for (const auto& phase : phases_) {
    link.simulator().schedule_at(
        phase.start, [&link, conditions = phase.conditions] {
          link.set_conditions(conditions);
        });
  }
}

SimDuration NetemSchedule::min_propagation_delay() const {
  SimDuration floor = std::numeric_limits<SimDuration>::max();
  for (const auto& phase : phases_) {
    floor = std::min(floor, phase.conditions.propagation_delay);
  }
  return floor;
}

NetemSchedule NetemSchedule::paper_table_v(Bandwidth bandwidth_unit) {
  const auto bw = [&](double units) {
    return Bandwidth{bandwidth_unit.bits_per_second * units};
  };
  NetemSchedule s;
  s.add(0, {bw(10), 0.00, 2 * kMillisecond}, "10u 0%");
  s.add(30 * kSecond, {bw(4), 0.00, 2 * kMillisecond}, "4u 0%");
  s.add(45 * kSecond, {bw(1), 0.00, 2 * kMillisecond}, "1u 0%");
  s.add(60 * kSecond, {bw(10), 0.00, 2 * kMillisecond}, "10u 0%");
  s.add(90 * kSecond, {bw(10), 0.07, 2 * kMillisecond}, "10u 7%");
  s.add(105 * kSecond, {bw(4), 0.07, 2 * kMillisecond}, "4u 7%");
  return s;
}

NetemSchedule NetemSchedule::constant(LinkConditions conditions) {
  NetemSchedule s;
  s.add(0, conditions, "constant");
  return s;
}

NetemSchedule NetemSchedule::loss_injection(SimTime at, double loss,
                                            Bandwidth bandwidth) {
  NetemSchedule s;
  s.add(0, {bandwidth, 0.0, 2 * kMillisecond}, "clean");
  s.add(at, {bandwidth, loss, 2 * kMillisecond}, "lossy");
  return s;
}

}  // namespace ff::net
