#include "ff/sim/timer.h"

#include <utility>

namespace ff::sim {

PeriodicTimer::PeriodicTimer(Simulator& sim,
                             std::function<void(std::uint64_t)> on_tick)
    : sim_(sim), on_tick_(std::move(on_tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start(SimDuration period, SimDuration initial_delay) {
  stop();
  period_ = period;
  active_ = true;
  arm(initial_delay);
}

void PeriodicTimer::stop() {
  if (active_) {
    sim_.cancel(pending_);
    active_ = false;
    pending_ = {};
  }
}

void PeriodicTimer::arm(SimDuration delay) {
  pending_ = sim_.schedule_in(delay, [this] { fire(); });
}

void PeriodicTimer::fire() {
  if (!active_) return;
  const std::uint64_t tick = ticks_++;
  // Re-arm before the callback so a callback calling stop()/start() wins.
  arm(period_);
  on_tick_(tick);
}

}  // namespace ff::sim
