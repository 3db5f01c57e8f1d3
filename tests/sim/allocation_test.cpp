// Pins the kernel's zero-allocation contract: after warm-up (heap vector
// and slab grown to working size), a steady-state schedule/execute/cancel
// loop must not touch the global heap. Counts via replaced global operator
// new/delete, gated by a flag so the rest of this binary is unaffected.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "ff/sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_tracking{false};

void* counted_alloc(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, size > 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ff::sim {
namespace {

class TrackingScope {
 public:
  TrackingScope() {
    g_allocations.store(0);
    g_tracking.store(true);
  }
  ~TrackingScope() { g_tracking.store(false); }

  [[nodiscard]] static std::uint64_t count() { return g_allocations.load(); }
};

TEST(Allocation, SteadyStateScheduleExecuteCancelIsAllocationFree) {
  constexpr int kBatch = 512;
  Simulator sim;
  std::uint64_t executed = 0;
  std::vector<EventId> ids;
  ids.reserve(kBatch);

  const auto churn = [&] {
    // The transport RTO pattern: schedule a wave, cancel half, run the rest.
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(sim.schedule_in(10 + i, [&executed] { ++executed; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      (void)sim.cancel(ids[i]);
    }
    (void)sim.run();
  };

  churn();  // warm-up: grows the heap vector, the slab and the free list

  {
    TrackingScope tracking;
    for (int round = 0; round < 8; ++round) churn();
    EXPECT_EQ(TrackingScope::count(), 0u);
  }
  EXPECT_EQ(executed, 9u * kBatch / 2);
}

TEST(Allocation, SelfReschedulingEventChainIsAllocationFree) {
  Simulator sim;
  std::uint64_t count = 0;
  // Non-capturing struct instead of std::function: re-scheduling copies it
  // into a fresh InlineTask each event.
  struct Chain {
    Simulator* sim;
    std::uint64_t* count;
    std::uint64_t limit;
    void operator()() const {
      if (++*count < limit) (void)sim->schedule_in(10, *this);
    }
  };
  (void)sim.schedule_in(10, Chain{&sim, &count, 100});
  (void)sim.run();  // warm-up

  count = 0;
  {
    TrackingScope tracking;
    (void)sim.schedule_in(10, Chain{&sim, &count, 10'000});
    (void)sim.run();
    EXPECT_EQ(TrackingScope::count(), 0u);
  }
  EXPECT_EQ(count, 10'000u);
}

}  // namespace
}  // namespace ff::sim
