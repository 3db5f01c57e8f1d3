#pragma once

// Conservative parallel partitioned DES driver (ROADMAP item 2).
//
// The entity graph is sharded into K partitions, each a full Simulator
// (own EventQueue, own clock, own label-forked RNG streams from the same
// root seed, so a component's stream depends only on its label, never on
// its partition). Partitions interact exclusively through directed
// BoundaryEdges whose `min_delay` is a hard lower bound on how far into
// the destination's future a message can land -- for network links, the
// minimum propagation delay. That bound is the classic conservative
// lookahead: each round the driver computes the global safe horizon
//
//     H = min_i(next_event_time_i) + min_edges(min_delay)
//
// runs every partition up to (but excluding) H in parallel -- no event
// executed inside the window can influence another partition before H --
// then drains the mailboxes at the barrier and opens the next window.
// This is the time-window variant of null-message synchronization: the
// horizon broadcast plays the role of null messages, amortized to one
// barrier per window instead of one message per edge.
//
// Determinism is the headline contract: results are bit-identical for any
// partition count and any worker-thread count. Three mechanisms carry it:
//
//  1. Each partition owns one outbox that only its own worker appends to
//     while a window executes; the driver reads every outbox only at the
//     barrier, when no worker runs. No interleaving exists to observe.
//  2. Every delivery carries its order key from the moment it is posted:
//     a DeliveryKey (deliver_at, post_time, link id, per-link FIFO
//     number), where the link id is the sender's creation index. No field
//     depends on K, on the window in which the post happened or on which
//     outbox holds it, so the barrier needs no sort and no shared
//     counter: it moves each envelope into its destination's delivery
//     queue, and a link whose two ends share a partition inserts there
//     directly, without an envelope.
//  3. Each Simulator merges its delivery queue with its internal events at
//     pop: at equal timestamps, every internal event runs before every
//     delivery, by explicit rule rather than by accident of scheduling
//     interleave. With one partition there are no edges and one window,
//     so K = 1 is a plain Simulator run.
//
// Why conservative rather than optimistic (Time Warp): the entities
// executed here (transports, batching servers, controllers) carry deep
// mutable state with callbacks into each other; checkpoint/rollback would
// have to snapshot all of it, and a misspeculated event could emit
// irreversible observer/trace side effects. With propagation delays of
// milliseconds against event spacings of microseconds, the lookahead is
// fat enough that conservative windows already batch hundreds of events,
// so rollback buys little and costs determinism.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "ff/sim/inline_task.h"
#include "ff/sim/simulator.h"
#include "ff/util/units.h"

namespace ff::sim {

/// One cross-partition message: an action to run in partition
/// `destination`, in the order `key` gives it there.
struct BoundaryEnvelope {
  DeliveryKey key;
  std::size_t destination{0};
  InlineTask action;
};

/// One directed source-partition -> destination-partition edge. Posts go
/// to the source partition's outbox, written only by that partition's
/// worker while a window executes and read only by the driver at the
/// barrier between windows -- the two phases never overlap, so a plain
/// vector suffices.
class BoundaryEdge {
 public:
  /// Posts an action for the destination partition under `key`. Must be
  /// called only from events executing in the source partition, and
  /// `key` must honor the lookahead contract:
  /// deliver_at >= post_time + min_delay().
  void post(const DeliveryKey& key, InlineTask action) {
    assert(key.deliver_at >= key.post_time + min_delay_ &&
           "boundary post violates the edge's lookahead contract");
    outbox_->push_back(BoundaryEnvelope{key, destination_, std::move(action)});
  }

  /// Posts under this edge's own key: the edge id stands in for the link
  /// id, with a FIFO number counted per edge.
  void post(SimTime post_time, SimTime deliver_at, InlineTask action) {
    post(DeliveryKey{deliver_at, post_time, next_fifo_++, id_},
         std::move(action));
  }

  /// Lookahead bound: no post may deliver sooner than this after its
  /// post time. Strictly positive (enforced at creation).
  [[nodiscard]] SimDuration min_delay() const { return min_delay_; }

  [[nodiscard]] std::size_t source() const { return source_; }
  [[nodiscard]] std::size_t destination() const { return destination_; }

  /// Creation index; the link id of posts made without a key.
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  friend class PartitionedSimulator;

  BoundaryEdge(std::uint32_t id, std::size_t source, std::size_t destination,
               SimDuration min_delay, std::vector<BoundaryEnvelope>* outbox)
      : id_(id),
        source_(source),
        destination_(destination),
        min_delay_(min_delay),
        outbox_(outbox) {}

  std::uint32_t id_;
  std::uint64_t next_fifo_{0};
  std::size_t source_;
  std::size_t destination_;
  SimDuration min_delay_;
  std::vector<BoundaryEnvelope>* outbox_;
};

/// K Simulators advanced in lockstep time windows. See the file comment
/// for the synchronization and determinism model. Construction (partition
/// access, add_edge) is single-threaded; run_until may execute windows on
/// an internal worker gang, but all cross-partition exchange happens on
/// the calling thread at barriers.
class PartitionedSimulator {
 public:
  struct Options {
    /// Number of partitions; must be >= 1.
    std::size_t partitions{1};
    /// Worker threads for window execution: 0 = one per partition (capped
    /// at hardware concurrency), 1 = serial on the calling thread. Results
    /// are bit-identical across all values. Resolved once, at
    /// construction.
    unsigned threads{0};
  };

  /// Every partition's Simulator gets the same root `seed`: component RNG
  /// streams fork by label, so a component's randomness is independent of
  /// which partition it lives in.
  explicit PartitionedSimulator(std::uint64_t seed);
  PartitionedSimulator(std::uint64_t seed, Options options);
  ~PartitionedSimulator();

  PartitionedSimulator(const PartitionedSimulator&) = delete;
  PartitionedSimulator& operator=(const PartitionedSimulator&) = delete;

  [[nodiscard]] std::size_t partition_count() const {
    return partitions_.size();
  }

  [[nodiscard]] Simulator& partition(std::size_t i) {
    return *partitions_.at(i);
  }

  /// Registers a directed edge. `min_delay` must be strictly positive --
  /// a zero-delay edge has no lookahead and would force zero-width
  /// windows -- otherwise std::invalid_argument is thrown. Self-edges
  /// (source == destination) are allowed; a post through one runs exactly
  /// as a direct Simulator::schedule_delivery with the same key would.
  BoundaryEdge& add_edge(std::size_t source, std::size_t destination,
                         SimDuration min_delay);

  /// Runs all partitions to `t_end` (events exactly at `t_end` do not
  /// run, matching Simulator::run_until), exchanging boundary envelopes
  /// at safe-horizon barriers. Returns events executed by this call.
  std::uint64_t run_until(SimTime t_end);

  /// Global lookahead: the minimum min_delay over all edges (0 when no
  /// edges exist, in which case windows span straight to t_end).
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// Conservative global clock: the minimum of the partition clocks.
  [[nodiscard]] SimTime now() const;

  /// Threads that execute windows, resolved from Options::threads at
  /// construction: 1 means every window runs on the calling thread.
  [[nodiscard]] unsigned worker_count() const { return worker_count_; }

  /// Total events executed across all partitions.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Safe horizon for one round, exposed for tests: the earliest pending
  /// event time across partitions plus the lookahead, capped at `t_end`;
  /// `t_end` directly when idle or edge-free.
  [[nodiscard]] SimTime safe_horizon(SimTime t_end) const;

 private:
  void drain_mailboxes();
  void execute_window(SimTime horizon);
  void run_share(unsigned index, SimTime horizon);
  void start_workers();
  void stop_workers();
  void worker_loop(unsigned index);

  /// A source partition's outbox, on its own cache line.
  struct alignas(64) Outbox {
    std::vector<BoundaryEnvelope> envelopes;
  };

  std::vector<std::unique_ptr<Simulator>> partitions_;
  std::vector<Outbox> outboxes_;
  /// A deque keeps each edge's address stable as edges are added.
  std::deque<BoundaryEdge> edges_;
  SimDuration lookahead_{0};

  // Worker gang (started lazily on the first parallel window): the
  // calling thread is worker 0 and workers_ holds the other
  // worker_count_ - 1. Round protocol: the driver writes horizon_, bumps
  // round_ (release) and runs worker 0's partitions; helpers acquire
  // round_, run their owned partitions to horizon_, and drop remaining_
  // (release) -- which the driver acquires, establishing the
  // happens-before edges both ways. No locks on the window path, so there
  // is no FF_CAPABILITY to guard by; the protocol IS the guard: horizon_
  // and the partition Simulators are published to workers by the round_
  // release store and handed back by the remaining_ release drop, and
  // TSan'd PartitionStress tests pin exactly those edges. Any new gang
  // state must be written only between a remaining_ acquire and the next
  // round_ bump (driver side) or read only after a round_ acquire
  // (worker side).
  unsigned worker_count_{1};
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> round_{0};
  std::atomic<unsigned> remaining_{0};
  std::atomic<bool> stop_{false};
  SimTime horizon_{0};  ///< published by the round_ release store
};

}  // namespace ff::sim
