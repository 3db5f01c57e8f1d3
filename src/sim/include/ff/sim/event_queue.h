#pragma once

// The simulator's pending-event set, built for zero steady-state
// allocations:
//
//  - the heap sifts 16-byte POD records {time, key}, in a 4-ary layout
//    (shallower than binary, and all four children of a node share one
//    cache line), while callables live out-of-band in a slab;
//  - `key` packs (sequence << kSlotBits) | (slot + 1): the sequence is
//    globally unique, so comparing (time, key) is exactly the
//    (time, sequence) determinism order, and the same key doubles as the
//    public EventId;
//  - the slab is chunked (512 slots per chunk), so tasks never relocate
//    when the pending set grows and each chunk stays below the allocator's
//    mmap threshold -- chunk memory is recycled from the arena instead of
//    being faulted in afresh for every simulator instance;
//  - slab slots are recycled through a free list and tagged with the
//    occupying event's sequence, so cancel/liveness checks are two loads
//    instead of a hash-table probe, and a stale EventId can never alias a
//    recycled slot (sequences are never reused);
//  - each slot tracks its entry's heap position, so cancellation removes
//    the record in place -- usually a leaf, so O(1) in practice -- and the
//    heap never carries tombstones: pop() and next_time() only ever see
//    live events, even under the transport's schedule/cancel RTO churn.
//
// Ordering is by (time, sequence number): same-timestamp events run in
// scheduling order, which keeps runs bit-for-bit reproducible -- the
// (time, sequence) order is a strict total order, so it is independent of
// heap arity and internal layout.
//
// Link deliveries live in a second heap, ordered by DeliveryKey
// (deliver_at, post_time, link id, per-link FIFO number); their tasks
// share the slab. pop() merges the two heaps: at equal timestamps every
// internal event runs before every delivery. No field of the key depends
// on how a run is partitioned, so a receiver sees one delivery order at
// every partition count (sim::PartitionedSimulator only moves deliveries
// between partitions, it never renumbers them).
//
// Hot-path members are defined inline here: the per-event cost is a few
// dozen nanoseconds, so a cross-TU call boundary per pop would be a
// measurable fraction of the budget.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <new>
#include <tuple>
#include <vector>

#include "ff/sim/inline_task.h"
#include "ff/util/units.h"

namespace ff::sim {

/// Opaque handle for cancelling a scheduled event. Value 0 is "no event".
struct EventId {
  std::uint64_t value{0};

  friend constexpr bool operator==(EventId, EventId) = default;
};

/// An event ready for execution. `sequence` is the scheduling sequence of
/// an internal event, or kDeliveryTag | link id for a link delivery.
struct Event {
  SimTime time{0};
  std::uint64_t sequence{0};
  InlineTask action;
};

/// Marks a link delivery in the sequence an observer sees.
inline constexpr std::uint64_t kDeliveryTag = std::uint64_t{1} << 63;

/// Order key of a link delivery: at one receiver, deliveries run in
/// ascending (deliver_at, post_time, link, fifo), after the internal
/// events of the same timestamp. `link` is the sending link's creation
/// index and `fifo` counts that link's deliveries, so the key is unique
/// per receiver.
struct DeliveryKey {
  SimTime deliver_at{0};
  SimTime post_time{0};
  std::uint64_t fifo{0};
  std::uint32_t link{0};
};

class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();

  // The slab hands out interior pointers (heap positions, free-list links),
  // so the queue is pinned in place.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` at absolute time `t`, constructing the callable
  /// directly in the slab (no intermediate task object).
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule(SimTime t, F&& action) {
    const std::uint32_t slot = acquire_slot();
    slot_at(slot).task.emplace(std::forward<F>(action));
    return push_entry(t, slot);
  }

  /// Schedules an already-built task at absolute time `t`.
  EventId schedule(SimTime t, InlineTask action);

  /// Queues a link delivery under `key`, constructing the callable in the
  /// slab. Deliveries cannot be cancelled.
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule_delivery(const DeliveryKey& key, F&& action) {
    const std::uint32_t slot = acquire_slot();
    slot_at(slot).task.emplace(std::forward<F>(action));
    push_delivery(key, slot);
  }

  /// Queues an already-built delivery task under `key`.
  void schedule_delivery(const DeliveryKey& key, InlineTask action);

  /// Cancels the event, releasing its callable immediately. Returns false
  /// if the id is unknown, already executed, or already cancelled.
  bool cancel(EventId id) {
    if (!is_live(id.value)) return false;
    const auto slot = static_cast<std::uint32_t>((id.value & kSlotMask) - 1);
    const std::size_t pos = slot_at(slot).heap_pos;
    release_slot(slot);
    remove_at(pos);
    return true;
  }

  /// True when no live events or deliveries remain.
  [[nodiscard]] bool empty() const {
    return heap_.empty() && deliveries_.empty();
  }

  [[nodiscard]] std::size_t size() const {
    return heap_.size() + deliveries_.size();
  }

  /// Time of the earliest live event or delivery; only valid when
  /// !empty().
  [[nodiscard]] SimTime next_time() const {
    assert(!empty());
    return delivery_next() ? deliveries_.front().deliver_at
                           : heap_.front().time;
  }

  /// Removes and returns the earliest event; only valid when !empty().
  [[nodiscard]] Event pop() {
    assert(!empty());
    Event out;
    visit_pop([&out](SimTime t, std::uint64_t sequence, InlineTask& task) {
      out.time = t;
      out.sequence = sequence;
      out.action = std::move(task);
    });
    return out;
  }

  /// Pops the earliest event if it lies before `before` and calls
  /// `visit(time, sequence, task)` with the task still in its slab slot --
  /// chunked slots never relocate, so the callable is executed with zero
  /// moves. Returns false, popping nothing, when no event lies before
  /// `before`. The event's id is dead for the duration of the visit
  /// (self-cancel is a no-op, matching pop()), and the slot is recycled
  /// afterwards even if the visit unwinds. The visit may schedule and
  /// cancel freely; it must not re-enter pop() or visit_pop() on this
  /// queue.
  template <class Visit>
  bool visit_pop(Visit&& visit,
                 SimTime before = std::numeric_limits<SimTime>::max()) {
    if (delivery_next()) {
      if (deliveries_.front().deliver_at >= before) return false;
      std::pop_heap(deliveries_.begin(), deliveries_.end(), &later);
      const DeliveryEntry d = deliveries_.back();
      deliveries_.pop_back();
      Slot& s = slot_at(d.slot);
      const ReleaseGuard guard{this, &s, d.slot};
      visit(d.deliver_at, kDeliveryTag | d.link, s.task);
      return true;
    }
    if (heap_.empty() || heap_.front().time >= before) return false;
    const HeapEntry e = heap_.front();
    const HeapEntry back = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, back);
    const auto slot = static_cast<std::uint32_t>((e.key & kSlotMask) - 1);
    Slot& s = slot_at(slot);
    s.sequence = kFreeSequence;  // id is dead while the action runs
    const ReleaseGuard guard{this, &s, slot};
    visit(e.time, e.key >> kSlotBits, s.task);
    return true;
  }

  /// Drops everything.
  void clear();

 private:
  // EventId / heap-key bit layout: low kSlotBits hold (slot index + 1) --
  // so a zero value stays "no event" -- and the high 40 bits hold the
  // event's sequence number. Sequences are monotone and never reused, so
  // a slot tagged with its occupant's sequence rejects every stale id.
  // 2^40 sequences is ~32 hours of simulated dispatch at 10M events/s;
  // push_entry() asserts on overflow.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1}
      << kSlotBits) - 1;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFF;
  static constexpr std::uint64_t kFreeSequence = ~std::uint64_t{0};
  static constexpr std::uint32_t kChunkShift = 9;  ///< 512 slots, ~48KB
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  ///< packed (sequence << kSlotBits) | (slot + 1)
  };
  static_assert(sizeof(HeapEntry) == 16,
                "four children of a 4-ary node must share a cache line");

  /// A DeliveryKey plus its task's slot, packed into 32 bytes. The slot
  /// only separates deliveries whose senders share a link id (bare links
  /// keep the default id 0); Experiment's links never tie on it.
  struct DeliveryEntry {
    SimTime deliver_at;
    SimTime post_time;
    std::uint64_t fifo;
    std::uint32_t link;
    std::uint32_t slot;
  };

  /// std heap order: true when `a` runs after `b`.
  static bool later(const DeliveryEntry& a, const DeliveryEntry& b) {
    return std::tie(a.deliver_at, a.post_time, a.link, a.fifo, a.slot) >
           std::tie(b.deliver_at, b.post_time, b.link, b.fifo, b.slot);
  }

  /// True when the next event to run is the earliest delivery: at equal
  /// times internal events run first.
  [[nodiscard]] bool delivery_next() const {
    return !deliveries_.empty() &&
           (heap_.empty() ||
            deliveries_.front().deliver_at < heap_.front().time);
  }

  void push_delivery(const DeliveryKey& key, std::uint32_t slot) {
    deliveries_.push_back(
        DeliveryEntry{key.deliver_at, key.post_time, key.fifo, key.link, slot});
    std::push_heap(deliveries_.begin(), deliveries_.end(), &later);
  }

  struct Slot {
    InlineTask task;
    std::uint64_t sequence{kFreeSequence};  ///< occupant's sequence, or free
    std::uint32_t next_free{kNoFreeSlot};
    std::uint32_t heap_pos{0};  ///< index of this event's heap record
  };

  /// Returns a visited slot to the free list, releasing its captures --
  /// via RAII so an unwinding action cannot leak the slot.
  struct ReleaseGuard {
    EventQueue* queue;
    Slot* s;
    std::uint32_t slot;
    ~ReleaseGuard() {
      s->task.reset();
      s->next_free = queue->free_head_;
      queue->free_head_ = slot;
    }
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    // For equal times the unique sequence occupies the key's high bits, so
    // the key comparison IS the sequence tiebreak.
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  [[nodiscard]] bool is_live(std::uint64_t key) const {
    const std::uint64_t biased_slot = key & kSlotMask;
    return biased_slot != 0 && biased_slot <= slot_count_ &&
           slot_at(static_cast<std::uint32_t>(biased_slot - 1)).sequence ==
               (key >> kSlotBits);
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slot_at(slot).next_free;
      return slot;
    }
    return grow_slab();
  }

  EventId push_entry(SimTime t, std::uint32_t slot) {
    const std::uint64_t seq = next_sequence_++;
    assert(seq < (std::uint64_t{1} << (64 - kSlotBits)) &&
           "event sequence exceeds the EventId packing range");
    slot_at(slot).sequence = seq;
    const std::uint64_t key = (seq << kSlotBits) | (slot + 1);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, HeapEntry{t, key});
    return EventId{key};
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    s.task.reset();
    s.sequence = kFreeSequence;  // invalidates outstanding ids
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Writes `e` at heap index `i` and records the position in its slot.
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    slot_at(static_cast<std::uint32_t>((e.key & kSlotMask) - 1)).heap_pos =
        static_cast<std::uint32_t>(i);
  }

  /// Settles `e` upward from the hole at `i`.
  void sift_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  /// Settles `e` downward from the hole at `i`.
  void sift_down(std::size_t i, const HeapEntry& e) {
    const std::size_t n = heap_.size();
    while (4 * i + 4 < n) {
      // Full child group: pairwise tournament for the minimum, so the two
      // halves compare independently instead of through one serial chain.
      const std::size_t first = 4 * i + 1;
      const std::size_t l = earlier(heap_[first + 1], heap_[first])
                                ? first + 1 : first;
      const std::size_t r = earlier(heap_[first + 3], heap_[first + 2])
                                ? first + 3 : first + 2;
      const std::size_t best = earlier(heap_[r], heap_[l]) ? r : l;
      // Pull the likely next child group toward the core before the
      // compare-vs-e branch resolves; sifted entries usually keep sinking.
      if (4 * best + 1 < n) __builtin_prefetch(&heap_[4 * best + 1]);
      if (!earlier(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
    }
    if (const std::size_t first = 4 * i + 1; first < n) {
      // Partial group at the frontier (at most once per sift).
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (earlier(heap_[best], e)) {
        place(i, heap_[best]);
        i = best;
      }
    }
    place(i, e);
  }

  /// Deletes the heap record at `pos`, refilling the hole from the back.
  void remove_at(std::size_t pos) {
    const std::size_t last = heap_.size() - 1;
    const HeapEntry back = heap_.back();
    heap_.pop_back();
    if (pos == last) return;
    if (pos > 0 && earlier(back, heap_[(pos - 1) >> 2])) {
      sift_up(pos, back);
    } else {
      sift_down(pos, back);
    }
  }

  std::uint32_t grow_slab();

  std::vector<HeapEntry> heap_;
  std::vector<DeliveryEntry> deliveries_;  ///< min-heap under later()
  // Raw chunk storage: slots are placement-constructed one at a time as the
  // pending set first grows, so a fresh queue never streams init writes
  // over cache lines it is not about to use. slot_count_ is the number of
  // constructed slots.
  std::vector<Slot*> chunks_;
  std::uint32_t slot_count_{0};
  std::uint32_t free_head_{kNoFreeSlot};
  std::uint64_t next_sequence_{0};
};

}  // namespace ff::sim
