#pragma once

// Discrete-event simulation kernel.
//
// All FrameFeedback experiments execute on this kernel: devices, links and
// servers are plain objects that schedule callbacks. Determinism contract:
// given the same seed and the same construction order, two runs produce
// identical event sequences.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>

#include "ff/sim/event_queue.h"
#include "ff/util/rng.h"
#include "ff/util/units.h"

namespace ff::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` to run `delay` from now (clamped to >= 0). The
  /// callable is forwarded straight into the event queue's slab, so small
  /// captures never materialize an intermediate task object.
  template <class F>
  EventId schedule_in(SimDuration delay, F&& action) {
    return queue_.schedule(
        now_ + std::max<SimDuration>(delay, 0), std::forward<F>(action));
  }

  /// Schedules `action` at absolute time `t` (clamped to >= now).
  template <class F>
  EventId schedule_at(SimTime t, F&& action) {
    return queue_.schedule(std::max(t, now_), std::forward<F>(action));
  }

  /// Queues a link delivery under `key` (see DeliveryKey): it runs at
  /// key.deliver_at, which must not lie in the past, after every internal
  /// event of that timestamp.
  template <class F>
  void schedule_delivery(const DeliveryKey& key, F&& action) {
    assert(key.deliver_at >= now_ && "delivery scheduled in the past");
    queue_.schedule_delivery(key, std::forward<F>(action));
  }

  /// Cancels a pending event. Safe to call with stale/executed ids.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or `t_end` is reached; events exactly at
  /// `t_end` do not run. Returns the number of events executed.
  std::uint64_t run_until(SimTime t_end);

  /// Runs until the queue drains. Returns the number of events executed.
  std::uint64_t run();

  /// Executes at most one event. Returns false when the queue is empty.
  bool step();

  /// True when no events are pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Time of the earliest pending event; only valid when !idle(). The
  /// partitioned driver reads this to compute the global safe horizon.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Root seed of this run (for reporting).
  [[nodiscard]] std::uint64_t seed() const { return root_rng_.seed(); }

  /// Deterministic per-component RNG stream.
  [[nodiscard]] Rng make_rng(std::string_view label) const {
    return root_rng_.fork(label);
  }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Called just before each event's action runs, with the event's (time,
  /// sequence); a link delivery reports kDeliveryTag | link id. A raw
  /// function pointer so the unset case is one predictable branch on the
  /// hot path. Used by determinism golden tests to fingerprint the
  /// executed event order; nullptr detaches.
  using EventObserver = void (*)(void* ctx, SimTime time,
                                 std::uint64_t sequence);
  void set_event_observer(EventObserver observer, void* ctx) {
    observer_ = observer;
    observer_ctx_ = ctx;
  }

 private:
  /// Pops and runs the earliest event if it lies before `before`,
  /// executing its task in place in the queue's slab (zero task moves per
  /// event). Returns false when no such event is pending.
  bool execute_next(SimTime before = std::numeric_limits<SimTime>::max()) {
    return queue_.visit_pop(
        [this](SimTime t, std::uint64_t sequence, InlineTask& task) {
          now_ = t;
          ++executed_;
          if (observer_ != nullptr) observer_(observer_ctx_, t, sequence);
          task();
        },
        before);
  }

  EventQueue queue_;
  SimTime now_{0};
  std::uint64_t executed_{0};
  EventObserver observer_{nullptr};
  void* observer_ctx_{nullptr};
  Rng root_rng_;
};

}  // namespace ff::sim
