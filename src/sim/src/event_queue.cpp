#include "ff/sim/event_queue.h"

namespace ff::sim {

EventId EventQueue::schedule(SimTime t, InlineTask action) {
  const std::uint32_t slot = acquire_slot();
  slot_at(slot).task = std::move(action);
  return push_entry(t, slot);
}

void EventQueue::schedule_delivery(const DeliveryKey& key,
                                   InlineTask action) {
  const std::uint32_t slot = acquire_slot();
  slot_at(slot).task = std::move(action);
  push_delivery(key, slot);
}

EventQueue::~EventQueue() {
  for (std::uint32_t i = 0; i < slot_count_; ++i) slot_at(i).~Slot();
  for (Slot* chunk : chunks_) {
    ::operator delete(static_cast<void*>(chunk));
  }
}

std::uint32_t EventQueue::grow_slab() {
  assert(slot_count_ < kSlotMask && "pending-event cap exceeded");
  if (slot_count_ == chunks_.size() * kChunkSize) {
    constexpr std::size_t kChunkBytes = sizeof(Slot) * std::size_t{kChunkSize};
    // ff-lint: allow(raw-allocation) slab growth, amortized O(1/512) and
    // absent from steady state (allocation_test pins the hot path at zero)
    chunks_.push_back(static_cast<Slot*>(::operator new(kChunkBytes)));
  }
  const std::uint32_t slot = slot_count_++;
  ::new (static_cast<void*>(&chunks_.back()[slot & (kChunkSize - 1)])) Slot;
  return slot;
}

void EventQueue::clear() {
  heap_.clear();
  deliveries_.clear();
  free_head_ = kNoFreeSlot;
  for (std::uint32_t i = slot_count_; i > 0; --i) {
    Slot& s = slot_at(i - 1);
    s.task.reset();  // deliveries hold tasks under kFreeSequence
    s.sequence = kFreeSequence;
    s.next_free = free_head_;
    free_head_ = i - 1;
  }
}

}  // namespace ff::sim
