#include "ff/device/local_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "ff/sim/timer.h"

namespace ff::device {
namespace {

models::LocalLatencyModel pi4_model(double jitter = 0.0) {
  return models::LocalLatencyModel(
      models::get_device(models::DeviceId::kPi4BR12),
      models::ModelId::kMobileNetV3Small, Rng(1), jitter);
}

TEST(LocalEngine, CompletesSubmittedFrame) {
  sim::Simulator sim;
  std::vector<std::uint64_t> done;
  LocalEngine eng(sim, pi4_model(),
                  [&](std::uint64_t id, SimTime) { done.push_back(id); });
  EXPECT_TRUE(eng.submit(7, 0));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 7u);
  EXPECT_EQ(eng.completed(), 1u);
}

TEST(LocalEngine, ServiceTimeMatchesTableIIRate) {
  sim::Simulator sim;
  SimTime finished = 0;
  LocalEngine eng(sim, pi4_model(),
                  [&](std::uint64_t, SimTime) { finished = sim.now(); });
  (void)eng.submit(1, 0);
  sim.run();
  // Pl = 13 fps -> ~76.9 ms per frame.
  EXPECT_NEAR(static_cast<double>(finished), 1e6 / 13.0, 10.0);
}

TEST(LocalEngine, QueueCapacityRejectsOverflow) {
  sim::Simulator sim;
  int done = 0;
  LocalEngine eng(sim, pi4_model(),
                  [&](std::uint64_t, SimTime) { ++done; });
  EXPECT_TRUE(eng.submit(1, 0));   // executing
  EXPECT_TRUE(eng.submit(2, 0));   // queued
  EXPECT_FALSE(eng.submit(3, 0));  // rejected
  EXPECT_EQ(eng.rejected(), 1u);
  sim.run();
  EXPECT_EQ(done, 2);
}

TEST(LocalEngine, SustainedRateEqualsPl) {
  sim::Simulator sim(2);
  int done = 0;
  LocalEngine eng(sim, pi4_model(0.08),
                  [&](std::uint64_t, SimTime) { ++done; });
  // Offer 30 fps; engine can only do 13.
  std::uint64_t id = 0;
  sim::PeriodicTimer source(
      sim, [&](std::uint64_t) { (void)eng.submit(id++, sim.now()); });
  source.start(kSecond / 30);
  sim.run_until(30 * kSecond);
  EXPECT_NEAR(done / 30.0, 13.0, 0.7);
  EXPECT_GT(eng.rejected(), 0u);
}

TEST(LocalEngine, FifoCompletionOrder) {
  sim::Simulator sim;
  std::vector<std::uint64_t> done;
  LocalEngine eng(sim, pi4_model(),
                  [&](std::uint64_t id, SimTime) { done.push_back(id); });
  (void)eng.submit(1, 0);
  (void)eng.submit(2, 0);
  // At 100 ms frame 1 (~77 ms) is done and frame 2 executes: a slot is
  // free behind it.
  (void)sim.schedule_at(100 * kMillisecond,
                        [&] { EXPECT_TRUE(eng.submit(3, sim.now())); });
  sim.run();
  EXPECT_EQ(done, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(LocalEngine, BusyFractionApproachesOneUnderSaturation) {
  sim::Simulator sim(3);
  LocalEngine eng(sim, pi4_model(0.05), [](std::uint64_t, SimTime) {});
  std::uint64_t id = 0;
  sim::PeriodicTimer source(
      sim, [&](std::uint64_t) { (void)eng.submit(id++, sim.now()); });
  source.start(kSecond / 30);
  sim.run_until(20 * kSecond);
  EXPECT_GT(eng.busy_fraction(), 0.9);
}

TEST(LocalEngine, BusyFractionLowUnderLightLoad) {
  sim::Simulator sim(4);
  LocalEngine eng(sim, pi4_model(0.05), [](std::uint64_t, SimTime) {});
  std::uint64_t id = 0;
  sim::PeriodicTimer source(
      sim, [&](std::uint64_t) { (void)eng.submit(id++, sim.now()); });
  source.start(kSecond);  // 1 fps into a 13 fps engine
  sim.run_until(20 * kSecond);
  EXPECT_LT(eng.busy_fraction(), 0.15);
}

TEST(LocalEngine, QueueDepthIncludesExecuting) {
  sim::Simulator sim;
  LocalEngine eng(sim, pi4_model(), [](std::uint64_t, SimTime) {});
  EXPECT_EQ(eng.queue_depth(), 0u);
  (void)eng.submit(1, 0);
  EXPECT_EQ(eng.queue_depth(), 1u);
  EXPECT_TRUE(eng.busy());
  (void)eng.submit(2, 0);
  EXPECT_EQ(eng.queue_depth(), 2u);
}

TEST(LocalEngine, ServiceRateReportsModelRate) {
  sim::Simulator sim;
  LocalEngine eng(sim, pi4_model(), [](std::uint64_t, SimTime) {});
  EXPECT_NEAR(eng.service_rate(), 13.0, 0.01);
}

}  // namespace
}  // namespace ff::device
