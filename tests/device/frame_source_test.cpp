#include "ff/device/frame_source.h"

#include <gtest/gtest.h>

#include <vector>

namespace ff::device {
namespace {

TEST(FrameSource, EmitsAtConfiguredRate) {
  sim::Simulator sim;
  int frames = 0;
  FrameSource src(sim, {Rate{30.0}, 0},
                  [&](std::uint64_t, SimTime) { ++frames; });
  src.start();
  sim.run_until(10 * kSecond);
  EXPECT_NEAR(frames, 300, 1);
}

TEST(FrameSource, FrameIndicesAreSequential) {
  sim::Simulator sim;
  std::vector<std::uint64_t> indices;
  FrameSource src(sim, {Rate{30.0}, 0},
                  [&](std::uint64_t i, SimTime) { indices.push_back(i); });
  src.start();
  sim.run_until(kSecond);
  ASSERT_GE(indices.size(), 29u);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
}

TEST(FrameSource, FrameLimitStops) {
  sim::Simulator sim;
  int frames = 0;
  FrameSource src(sim, {Rate{30.0}, 100},
                  [&](std::uint64_t, SimTime) { ++frames; });
  src.start();
  sim.run_until(60 * kSecond);
  EXPECT_EQ(frames, 100);
  EXPECT_FALSE(src.running());
  EXPECT_EQ(src.frames_emitted(), 100u);
}

TEST(FrameSource, StopHaltsEmission) {
  sim::Simulator sim;
  int frames = 0;
  FrameSource src(sim, {Rate{30.0}, 0},
                  [&](std::uint64_t, SimTime) { ++frames; });
  src.start();
  (void)sim.schedule_at(kSecond, [&] { src.stop(); });
  sim.run_until(10 * kSecond);
  EXPECT_NEAR(frames, 30, 1);
}

TEST(FrameSource, StartIsIdempotent) {
  sim::Simulator sim;
  int frames = 0;
  FrameSource src(sim, {Rate{10.0}, 0},
                  [&](std::uint64_t, SimTime) { ++frames; });
  src.start();
  src.start();
  sim.run_until(kSecond + 1);
  EXPECT_EQ(frames, 10);
}

TEST(FrameSource, GapsAreOnePeriod) {
  sim::Simulator sim;
  std::vector<SimTime> times;
  FrameSource src(sim, {Rate{30.0}, 0},
                  [&](std::uint64_t, SimTime t) { times.push_back(t); });
  src.start();
  sim.run_until(5 * kSecond);
  ASSERT_GT(times.size(), 10u);
  EXPECT_EQ(times[0], Rate{30.0}.period());
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], Rate{30.0}.period());
  }
}

TEST(FrameSource, RestartAfterStopContinuesIndices) {
  sim::Simulator sim;
  std::vector<std::uint64_t> indices;
  FrameSource src(sim, {Rate{10.0}, 0},
                  [&](std::uint64_t i, SimTime) { indices.push_back(i); });
  src.start();
  (void)sim.schedule_at(kSecond, [&] { src.stop(); });
  (void)sim.schedule_at(2 * kSecond, [&] { src.start(); });
  sim.run_until(3 * kSecond);
  ASSERT_GT(indices.size(), 12u);
  // Strictly increasing, no resets.
  for (std::size_t i = 1; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], indices[i - 1] + 1);
  }
}

}  // namespace
}  // namespace ff::device
