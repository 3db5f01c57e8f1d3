#include "ff/sim/partition.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace ff::sim {
namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

/// Bounded spin before yielding: windows are microseconds apart, so the
/// next round usually arrives before a context switch would finish.
class SpinWaiter {
 public:
  void wait() {
    if (++spins_ > kSpinLimit) std::this_thread::yield();
  }

 private:
  static constexpr unsigned kSpinLimit = 256;
  unsigned spins_{0};
};

}  // namespace

PartitionedSimulator::PartitionedSimulator(std::uint64_t seed)
    : PartitionedSimulator(seed, Options{}) {}

PartitionedSimulator::PartitionedSimulator(std::uint64_t seed,
                                           Options options) {
  if (options.partitions == 0) {
    throw std::invalid_argument(
        "PartitionedSimulator: partition count must be >= 1");
  }
  partitions_.reserve(options.partitions);
  for (std::size_t i = 0; i < options.partitions; ++i) {
    partitions_.push_back(std::make_unique<Simulator>(seed));
  }
  outboxes_.resize(options.partitions);
  // hardware_concurrency() reads sysfs; one partition never needs it.
  unsigned threads = std::max(options.threads, 1u);
  if (options.threads == 0 && options.partitions > 1) {
    threads = std::max(std::thread::hardware_concurrency(), 1u);
  }
  worker_count_ = static_cast<unsigned>(
      std::min<std::size_t>(options.partitions, threads));
}

PartitionedSimulator::~PartitionedSimulator() { stop_workers(); }

BoundaryEdge& PartitionedSimulator::add_edge(std::size_t source,
                                             std::size_t destination,
                                             SimDuration min_delay) {
  if (source >= partitions_.size() || destination >= partitions_.size()) {
    throw std::invalid_argument(
        "PartitionedSimulator::add_edge: partition index out of range");
  }
  if (min_delay <= 0) {
    throw std::invalid_argument(
        "PartitionedSimulator::add_edge: zero or negative minimum delay on "
        "edge " +
        std::to_string(source) + "->" + std::to_string(destination) +
        "; conservative synchronization needs a strictly positive lookahead "
        "(the link's minimum propagation delay)");
  }
  edges_.push_back(BoundaryEdge(static_cast<std::uint32_t>(edges_.size()),
                               source, destination, min_delay,
                               &outboxes_[source].envelopes));
  lookahead_ = lookahead_ == 0 ? min_delay : std::min(lookahead_, min_delay);
  return edges_.back();
}

SimTime PartitionedSimulator::now() const {
  SimTime t = kNoEvent;
  for (const auto& p : partitions_) t = std::min(t, p->now());
  return t;
}

std::uint64_t PartitionedSimulator::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& p : partitions_) n += p->events_executed();
  return n;
}

SimTime PartitionedSimulator::safe_horizon(SimTime t_end) const {
  SimTime next = kNoEvent;
  for (const auto& p : partitions_) {
    if (!p->idle()) next = std::min(next, p->next_event_time());
  }
  if (next >= t_end || edges_.empty()) return t_end;
  return std::min(next + lookahead_, t_end);
}

std::uint64_t PartitionedSimulator::run_until(SimTime t_end) {
  const std::uint64_t before = events_executed();
  // Envelopes can be pending from a previous call's final window.
  drain_mailboxes();
  while (true) {
    SimTime next = kNoEvent;
    for (const auto& p : partitions_) {
      if (!p->idle()) next = std::min(next, p->next_event_time());
    }
    if (next >= t_end) break;
    const SimTime horizon =
        edges_.empty() ? t_end : std::min(next + lookahead_, t_end);
    execute_window(horizon);
    drain_mailboxes();
  }
  // Advance every clock to the horizon (no events remain before it).
  for (const auto& p : partitions_) p->run_until(t_end);
  return events_executed() - before;
}

void PartitionedSimulator::drain_mailboxes() {
  // Each envelope carries its K-independent order key, so the order in
  // which envelopes reach a destination's queue does not matter.
  for (Outbox& outbox : outboxes_) {
    for (BoundaryEnvelope& env : outbox.envelopes) {
      partitions_[env.destination]->schedule_delivery(env.key,
                                                      std::move(env.action));
    }
    outbox.envelopes.clear();
  }
}

void PartitionedSimulator::execute_window(SimTime horizon) {
  if (worker_count_ <= 1) {
    for (const auto& p : partitions_) p->run_until(horizon);
    return;
  }
  if (workers_.empty()) start_workers();
  horizon_ = horizon;
  remaining_.store(worker_count_ - 1, std::memory_order_relaxed);
  round_.fetch_add(1, std::memory_order_release);
  // The calling thread is worker 0: it runs its own share instead of
  // spinning beside the helpers, so a window occupies worker_count_
  // threads, not one more than that.
  run_share(0, horizon);
  SpinWaiter waiter;
  while (remaining_.load(std::memory_order_acquire) != 0) waiter.wait();
}

void PartitionedSimulator::run_share(unsigned index, SimTime horizon) {
  // Static partition ownership: worker w always advances partitions
  // w, w + W, w + 2W, ... so a partition's state is only ever touched
  // by one thread per window.
  for (std::size_t p = index; p < partitions_.size(); p += worker_count_) {
    partitions_[p]->run_until(horizon);
  }
}

void PartitionedSimulator::start_workers() {
  workers_.reserve(worker_count_ - 1);
  for (unsigned w = 1; w < worker_count_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

void PartitionedSimulator::stop_workers() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void PartitionedSimulator::worker_loop(unsigned index) {
  std::uint64_t seen_round = 0;
  while (true) {
    std::uint64_t r = seen_round;
    SpinWaiter waiter;
    while ((r = round_.load(std::memory_order_acquire)) == seen_round) {
      if (stop_.load(std::memory_order_acquire)) return;
      waiter.wait();
    }
    seen_round = r;
    run_share(index, horizon_);
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace ff::sim
