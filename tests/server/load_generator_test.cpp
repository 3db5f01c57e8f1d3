#include "ff/server/load_generator.h"

#include <gtest/gtest.h>

namespace ff::server {
namespace {

TEST(LoadSchedule, AtReturnsPhaseRate) {
  LoadSchedule s;
  s.add(0, Rate{0});
  s.add(10 * kSecond, Rate{90});
  s.add(20 * kSecond, Rate{120});
  EXPECT_DOUBLE_EQ(s.at(5 * kSecond).per_second, 0.0);
  EXPECT_DOUBLE_EQ(s.at(10 * kSecond).per_second, 90.0);
  EXPECT_DOUBLE_EQ(s.at(15 * kSecond).per_second, 90.0);
  EXPECT_DOUBLE_EQ(s.at(300 * kSecond).per_second, 120.0);
}

TEST(LoadSchedule, BeforeFirstPhaseIsZero) {
  LoadSchedule s;
  s.add(10 * kSecond, Rate{50});
  EXPECT_DOUBLE_EQ(s.at(0).per_second, 0.0);
}

TEST(LoadSchedule, OutOfOrderThrows) {
  LoadSchedule s;
  s.add(10 * kSecond, Rate{1});
  EXPECT_THROW(s.add(5 * kSecond, Rate{2}), std::invalid_argument);
}

TEST(LoadSchedule, PaperTableVIMatchesPaper) {
  const LoadSchedule s = LoadSchedule::paper_table_vi();
  ASSERT_EQ(s.phases().size(), 9u);
  // Table VI rows.
  EXPECT_DOUBLE_EQ(s.at(5 * kSecond).per_second, 0.0);
  EXPECT_DOUBLE_EQ(s.at(15 * kSecond).per_second, 90.0);
  EXPECT_DOUBLE_EQ(s.at(25 * kSecond).per_second, 120.0);
  EXPECT_DOUBLE_EQ(s.at(40 * kSecond).per_second, 135.0);
  EXPECT_DOUBLE_EQ(s.at(55 * kSecond).per_second, 150.0);
  EXPECT_DOUBLE_EQ(s.at(65 * kSecond).per_second, 130.0);
  EXPECT_DOUBLE_EQ(s.at(80 * kSecond).per_second, 120.0);
  EXPECT_DOUBLE_EQ(s.at(95 * kSecond).per_second, 90.0);
  EXPECT_DOUBLE_EQ(s.at(110 * kSecond).per_second, 0.0);
}

TEST(LoadGenerator, GeneratesAtScheduledRate) {
  sim::Simulator sim(3);
  EdgeServer server(sim, {});
  LoadGenerator gen(sim, server, LoadSchedule::constant(Rate{100}), {});
  gen.start();
  sim.run_until(20 * kSecond);
  // Poisson with mean 2000 arrivals; 3 sigma ~ 134.
  EXPECT_NEAR(static_cast<double>(gen.requests_sent()), 2000.0, 150.0);
}

TEST(LoadGenerator, ZeroPhaseGeneratesNothing) {
  sim::Simulator sim(5);
  EdgeServer server(sim, {});
  LoadSchedule s;
  s.add(0, Rate{0});
  s.add(5 * kSecond, Rate{100});
  LoadGenerator gen(sim, server, s, {});
  gen.start();
  sim.run_until(5 * kSecond);
  EXPECT_EQ(gen.requests_sent(), 0u);
  sim.run_until(10 * kSecond);
  EXPECT_GT(gen.requests_sent(), 300u);
}

TEST(LoadGenerator, RampDownStopsGenerating) {
  sim::Simulator sim(6);
  EdgeServer server(sim, {});
  LoadSchedule s;
  s.add(0, Rate{100});
  s.add(5 * kSecond, Rate{0});
  LoadGenerator gen(sim, server, s, {});
  gen.start();
  sim.run_until(5 * kSecond);
  const std::uint64_t at_ramp = gen.requests_sent();
  sim.run_until(20 * kSecond);
  // At most one in-flight arrival slips past the boundary.
  EXPECT_LE(gen.requests_sent(), at_ramp + 1);
}

TEST(LoadGenerator, TracksCompletionsAndRejections) {
  sim::Simulator sim(7);
  EdgeServer server(sim, {});
  LoadSchedule schedule;
  schedule.add(0, Rate{300});
  schedule.add(10 * kSecond, Rate{0});  // stop so the sim can drain
  LoadGenerator gen(sim, server, schedule, {});
  gen.start();
  sim.run_until(15 * kSecond);
  EXPECT_GT(gen.requests_completed(), 0u);
  EXPECT_GT(gen.requests_rejected(), 0u);  // 300/s over capacity
  EXPECT_EQ(gen.requests_completed() + gen.requests_rejected(),
            gen.requests_sent());
}

TEST(LoadGenerator, StartIsIdempotent) {
  sim::Simulator sim(8);
  EdgeServer server(sim, {});
  LoadGenerator gen(sim, server, LoadSchedule::constant(Rate{10}), {});
  gen.start();
  gen.start();
  gen.start();
  sim.run_until(10 * kSecond);
  // One Poisson stream: 100 expected, sd 10. Three would send ~300.
  EXPECT_NEAR(static_cast<double>(gen.requests_sent()), 100.0, 40.0);
}

TEST(LoadGenerator, CurrentRateFollowsSchedule) {
  sim::Simulator sim(9);
  EdgeServer server(sim, {});
  LoadSchedule s;
  s.add(0, Rate{10});
  s.add(5 * kSecond, Rate{70});
  LoadGenerator gen(sim, server, s, {});
  EXPECT_DOUBLE_EQ(gen.current_rate().per_second, 10.0);
  sim.run_until(6 * kSecond);
  EXPECT_DOUBLE_EQ(gen.current_rate().per_second, 70.0);
}

}  // namespace
}  // namespace ff::server
