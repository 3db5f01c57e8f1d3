#include "ff/server/load_generator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ff::server {

LoadSchedule& LoadSchedule::add(SimTime start, Rate rate) {
  if (!phases_.empty() && start < phases_.back().start) {
    throw std::invalid_argument("LoadSchedule: phases out of order");
  }
  phases_.push_back(LoadPhase{start, rate});
  return *this;
}

Rate LoadSchedule::at(SimTime t) const {
  Rate rate{0.0};
  for (const auto& p : phases_) {
    if (p.start <= t) rate = p.rate;
  }
  return rate;
}

LoadSchedule LoadSchedule::paper_table_vi() {
  LoadSchedule s;
  s.add(0, Rate{0});
  s.add(10 * kSecond, Rate{90});
  s.add(20 * kSecond, Rate{120});
  s.add(35 * kSecond, Rate{135});
  s.add(50 * kSecond, Rate{150});
  s.add(60 * kSecond, Rate{130});
  s.add(75 * kSecond, Rate{120});
  s.add(90 * kSecond, Rate{90});
  s.add(100 * kSecond, Rate{0});
  return s;
}

LoadSchedule LoadSchedule::constant(Rate rate) {
  LoadSchedule s;
  s.add(0, rate);
  return s;
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, EdgeServer& server,
                             LoadSchedule schedule, LoadGeneratorConfig config)
    : sim_(sim),
      server_(server),
      schedule_(std::move(schedule)),
      config_(std::move(config)),
      rng_(sim.make_rng("loadgen/" + config_.name)) {}

void LoadGenerator::start() {
  if (started_) return;
  started_ = true;
  arm_next();
}

void LoadGenerator::arm_next() {
  const Rate rate = schedule_.at(sim_.now());
  if (rate.per_second <= 0.0) {
    // Idle phase: poll for the next phase boundary rather than computing it
    // exactly; 100 ms granularity is far below any schedule step.
    sim_.schedule_in(100 * kMillisecond, [this] { arm_next(); });
    return;
  }
  const SimDuration gap = std::max<SimDuration>(
      static_cast<SimDuration>(rng_.exponential(1.0 / rate.per_second) *
                               static_cast<double>(kSecond)),
      1);
  sim_.schedule_in(gap, [this] { fire(); });
}

void LoadGenerator::fire() {
  InferenceRequest req;
  req.request_id = (config_.client_id << 32) | next_request_id_++;
  req.client_id = config_.client_id;
  req.model = config_.model;
  req.payload = config_.payload;
  ++sent_;
  server_.submit(std::move(req), [this](const RequestOutcome& outcome) {
    if (outcome.status == RequestStatus::kCompleted) {
      ++completed_;
    } else {
      ++rejected_;
    }
  });
  arm_next();
}

}  // namespace ff::server
