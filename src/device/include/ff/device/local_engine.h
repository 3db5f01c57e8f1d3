#pragma once

// On-device inference service: a single-worker queue whose service time
// comes from the device/model latency model. Its sustainable rate is the
// paper's Pl (Table II). The queue is tiny -- two frames, counting the one
// executing -- because a real-time pipeline skips stale frames rather than
// queueing them.

#include <cstdint>
#include <deque>
#include <functional>

#include "ff/models/latency_model.h"
#include "ff/sim/simulator.h"

namespace ff::device {

class LocalEngine {
 public:
  /// `on_complete(frame_id, capture_time)` fires when inference finishes.
  using CompleteFn = std::function<void(std::uint64_t, SimTime)>;

  LocalEngine(sim::Simulator& sim, models::LocalLatencyModel latency,
              CompleteFn on_complete);

  LocalEngine(const LocalEngine&) = delete;
  LocalEngine& operator=(const LocalEngine&) = delete;

  /// Admits a frame; false = queue full (frame skipped).
  [[nodiscard]] bool submit(std::uint64_t frame_id, SimTime capture_time);

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() + (busy_ ? 1 : 0);
  }
  [[nodiscard]] bool busy() const { return busy_; }

  /// Cumulative busy time (inference executing), for CPU-utilization
  /// accounting.
  [[nodiscard]] SimDuration busy_time() const { return busy_time_; }

  /// Busy fraction since t=0.
  [[nodiscard]] double busy_fraction() const;

  /// Steady-state service rate (Pl), frames/second.
  [[nodiscard]] double service_rate() const { return latency_.rate(); }

 private:
  struct Job {
    std::uint64_t frame_id;
    SimTime capture_time;
  };

  void start_next();

  sim::Simulator& sim_;
  models::LocalLatencyModel latency_;
  CompleteFn on_complete_;
  std::deque<Job> queue_;
  bool busy_{false};
  std::uint64_t completed_{0};
  std::uint64_t rejected_{0};
  SimDuration busy_time_{0};
};

}  // namespace ff::device
