#include "ff/device/local_engine.h"

#include <utility>

namespace ff::device {
namespace {

/// Frames admitted at once (including the one executing).
constexpr std::size_t kQueueCapacity = 2;

}  // namespace

LocalEngine::LocalEngine(sim::Simulator& sim, models::LocalLatencyModel latency,
                         CompleteFn on_complete)
    : sim_(sim), latency_(latency), on_complete_(std::move(on_complete)) {}

bool LocalEngine::submit(std::uint64_t frame_id, SimTime capture_time) {
  if (queue_depth() >= kQueueCapacity) {
    ++rejected_;
    return false;
  }
  queue_.push_back(Job{frame_id, capture_time});
  if (!busy_) start_next();
  return true;
}

void LocalEngine::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const Job job = queue_.front();
  queue_.pop_front();
  const SimDuration service = latency_.sample();
  busy_time_ += service;
  sim_.schedule_in(service, [this, job] {
    ++completed_;
    on_complete_(job.frame_id, job.capture_time);
    start_next();
  });
}

double LocalEngine::busy_fraction() const {
  const SimTime elapsed = sim_.now();
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

}  // namespace ff::device
