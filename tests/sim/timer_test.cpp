#include "ff/sim/timer.h"

#include <gtest/gtest.h>

#include <vector>

namespace ff::sim {
namespace {

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  PeriodicTimer t(sim, [&](std::uint64_t) { fire_times.push_back(sim.now()); });
  t.start(kSecond);
  sim.run_until(3 * kSecond + kSecond / 2);
  ASSERT_EQ(fire_times.size(), 4u);  // t=0 (initial_delay 0), 1, 2, 3
  EXPECT_EQ(fire_times[0], 0);
  EXPECT_EQ(fire_times[1], kSecond);
  EXPECT_EQ(fire_times[3], 3 * kSecond);
}

TEST(PeriodicTimer, InitialDelayDelaysFirstTick) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  PeriodicTimer t(sim, [&](std::uint64_t) { fire_times.push_back(sim.now()); });
  t.start(kSecond, kSecond);
  sim.run_until(2 * kSecond + 1);
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], kSecond);
  EXPECT_EQ(fire_times[1], 2 * kSecond);
}

TEST(PeriodicTimer, TickIndexIncrements) {
  Simulator sim;
  std::vector<std::uint64_t> ticks;
  PeriodicTimer t(sim, [&](std::uint64_t i) { ticks.push_back(i); });
  t.start(kSecond, kSecond);
  sim.run_until(3 * kSecond + 1);
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(PeriodicTimer, StopHaltsTicks) {
  Simulator sim;
  int count = 0;
  PeriodicTimer t(sim, [&](std::uint64_t) { ++count; });
  t.start(kSecond, kSecond);
  (void)sim.schedule_at(2 * kSecond + 1, [&] { t.stop(); });
  sim.run_until(10 * kSecond);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(t.active());
}

TEST(PeriodicTimer, StopFromCallbackWorks) {
  Simulator sim;
  int count = 0;
  PeriodicTimer t(sim, [&](std::uint64_t) {
    if (++count == 3) t.stop();
  });
  t.start(kSecond, kSecond);
  sim.run_until(10 * kSecond);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, RestartReschedules) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  PeriodicTimer t(sim, [&](std::uint64_t) { fire_times.push_back(sim.now()); });
  t.start(kSecond, kSecond);
  (void)sim.schedule_at(kSecond + 1, [&] { t.start(2 * kSecond,
                                                   2 * kSecond); });
  sim.run_until(6 * kSecond);
  // Fired at 1s (old), then restarted: 3s+1us, 5s+1us.
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], kSecond);
  EXPECT_EQ(fire_times[1], 3 * kSecond + 1);
  EXPECT_EQ(fire_times[2], 5 * kSecond + 1);
}

TEST(PeriodicTimer, DestructionCancelsPending) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTimer t(sim, [&](std::uint64_t) { ++count; });
    t.start(kSecond, kSecond);
  }
  sim.run_until(10 * kSecond);
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace ff::sim
