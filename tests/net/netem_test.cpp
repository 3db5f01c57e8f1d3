#include "ff/net/netem.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ff::net {
namespace {

TEST(NetemSchedule, AtReturnsPhaseInForce) {
  NetemSchedule s;
  s.add(0, {Bandwidth::mbps(10), 0.0, 0});
  s.add(30 * kSecond, {Bandwidth::mbps(4), 0.0, 0});
  EXPECT_DOUBLE_EQ(s.at(0).bandwidth.bits_per_second, 10e6);
  EXPECT_DOUBLE_EQ(s.at(29 * kSecond).bandwidth.bits_per_second, 10e6);
  EXPECT_DOUBLE_EQ(s.at(30 * kSecond).bandwidth.bits_per_second, 4e6);
  EXPECT_DOUBLE_EQ(s.at(1000 * kSecond).bandwidth.bits_per_second, 4e6);
}

TEST(NetemSchedule, EmptyReturnsDefaults) {
  const NetemSchedule s;
  EXPECT_DOUBLE_EQ(s.at(0).loss_probability, 0.0);
}

TEST(NetemSchedule, OutOfOrderThrows) {
  NetemSchedule s;
  s.add(10 * kSecond, {});
  EXPECT_THROW(s.add(5 * kSecond, {}), std::invalid_argument);
}

TEST(NetemSchedule, PhaseIndexAt) {
  NetemSchedule s;
  s.add(0, {});
  s.add(10 * kSecond, {});
  s.add(20 * kSecond, {});
  EXPECT_EQ(s.phase_index_at(5 * kSecond), 0u);
  EXPECT_EQ(s.phase_index_at(15 * kSecond), 1u);
  EXPECT_EQ(s.phase_index_at(25 * kSecond), 2u);
}

TEST(NetemSchedule, PaperTableVMatchesPaper) {
  const NetemSchedule s = NetemSchedule::paper_table_v(Bandwidth::mbps(1.0));
  ASSERT_EQ(s.phases().size(), 6u);
  // Table V rows: 0-30:10/0%, 30-45:4/0%, 45-60:1/0%, 60-90:10/0%,
  // 90-105:10/7%, 105+:4/7%.
  EXPECT_DOUBLE_EQ(s.at(10 * kSecond).bandwidth.bits_per_second, 10e6);
  EXPECT_DOUBLE_EQ(s.at(35 * kSecond).bandwidth.bits_per_second, 4e6);
  EXPECT_DOUBLE_EQ(s.at(50 * kSecond).bandwidth.bits_per_second, 1e6);
  EXPECT_DOUBLE_EQ(s.at(70 * kSecond).bandwidth.bits_per_second, 10e6);
  EXPECT_DOUBLE_EQ(s.at(95 * kSecond).loss_probability, 0.07);
  EXPECT_DOUBLE_EQ(s.at(95 * kSecond).bandwidth.bits_per_second, 10e6);
  EXPECT_DOUBLE_EQ(s.at(120 * kSecond).bandwidth.bits_per_second, 4e6);
  EXPECT_DOUBLE_EQ(s.at(120 * kSecond).loss_probability, 0.07);
  EXPECT_DOUBLE_EQ(s.at(20 * kSecond).loss_probability, 0.0);
}

TEST(NetemSchedule, PaperTableVScalesWithUnit) {
  const NetemSchedule s = NetemSchedule::paper_table_v(Bandwidth::kbps(1.0));
  EXPECT_DOUBLE_EQ(s.at(0).bandwidth.bits_per_second, 10e3);
}

TEST(NetemSchedule, LossInjection) {
  const NetemSchedule s =
      NetemSchedule::loss_injection(27 * kSecond, 0.07, Bandwidth::mbps(10));
  EXPECT_DOUBLE_EQ(s.at(26 * kSecond).loss_probability, 0.0);
  EXPECT_DOUBLE_EQ(s.at(27 * kSecond).loss_probability, 0.07);
}

TEST(NetemSchedule, ApplyChangesLinkAtPhaseStart) {
  sim::Simulator sim;
  LinkConfig c;
  c.initial = {Bandwidth::mbps(10), 0.0, 0};
  Link link(sim, c);

  NetemSchedule s;
  s.add(0, {Bandwidth::mbps(10), 0.0, 0});
  s.add(5 * kSecond, {Bandwidth::mbps(1), 0.25, 0});
  s.apply(link);

  sim.run_until(4 * kSecond);
  EXPECT_DOUBLE_EQ(link.conditions().loss_probability, 0.0);
  sim.run_until(6 * kSecond);
  EXPECT_DOUBLE_EQ(link.conditions().loss_probability, 0.25);
  EXPECT_DOUBLE_EQ(link.conditions().bandwidth.bits_per_second, 1e6);
}

TEST(NetemSchedule, ApplyReachesAllLinks) {
  sim::Simulator sim;
  LinkConfig c;
  Link a(sim, c), b(sim, c);
  NetemSchedule s;
  s.add(kSecond, {Bandwidth::mbps(2), 0.1, 0});
  s.apply(a);
  s.apply(b);
  sim.run_until(2 * kSecond);
  EXPECT_DOUBLE_EQ(a.conditions().loss_probability, 0.1);
  EXPECT_DOUBLE_EQ(b.conditions().loss_probability, 0.1);
}

TEST(NetemSchedule, RejectsLossOutsideUnitInterval) {
  for (const double loss : {-0.1, 1.7, std::nan("")}) {
    NetemSchedule s;
    try {
      s.add(0, {Bandwidth::mbps(10), loss, 0});
      FAIL() << "loss " << loss << " must be rejected";
    } catch (const std::invalid_argument& e) {
      // The message names the offending value.
      std::ostringstream value;
      value << loss;
      EXPECT_NE(std::string(e.what()).find(value.str()), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(s.empty());

    sim::Simulator sim;
    LinkConfig c;
    c.initial.loss_probability = loss;
    EXPECT_THROW(Link(sim, c), std::invalid_argument) << loss;
  }
  NetemSchedule edges;
  EXPECT_NO_THROW(edges.add(0, {Bandwidth::mbps(10), 0.0, 0}));
  EXPECT_NO_THROW(edges.add(1, {Bandwidth::mbps(10), 1.0, 0}));
}

TEST(NetemSchedule, ConstantSingsPhase) {
  const NetemSchedule s =
      NetemSchedule::constant({Bandwidth::mbps(3), 0.01, kMillisecond});
  ASSERT_EQ(s.phases().size(), 1u);
  EXPECT_DOUBLE_EQ(s.at(99 * kSecond).bandwidth.bits_per_second, 3e6);
}

}  // namespace
}  // namespace ff::net
