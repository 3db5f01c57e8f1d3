#pragma once

// Periodic timer built on the kernel: drives controller measurement ticks,
// frame sources, heartbeats and schedule changes.

#include <functional>

#include "ff/sim/simulator.h"

namespace ff::sim {

/// Fires a callback every `period` until stopped. The callback receives the
/// tick index (0-based). Restart-safe; destruction stops the timer.
class PeriodicTimer {
 public:
  /// `sim` must outlive the timer.
  PeriodicTimer(Simulator& sim, std::function<void(std::uint64_t)> on_tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking with the first tick `initial_delay` from now and every
  /// `period` after. Restarting an active timer reschedules it.
  void start(SimDuration period, SimDuration initial_delay = 0);

  /// Stops future ticks; the tick counter is preserved.
  void stop();

  /// Changes the period; takes effect after the next tick (or immediately
  /// if stopped-then-started).
  void set_period(SimDuration period) { period_ = period; }

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] SimDuration period() const { return period_; }

 private:
  void arm(SimDuration delay);
  void fire();

  Simulator& sim_;
  std::function<void(std::uint64_t)> on_tick_;
  SimDuration period_{0};
  EventId pending_{};
  bool active_{false};
  std::uint64_t ticks_{0};
};

}  // namespace ff::sim
