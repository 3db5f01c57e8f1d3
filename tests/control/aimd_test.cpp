#include "ff/control/aimd.h"

#include <gtest/gtest.h>

namespace ff::control {
namespace {

ControllerInput input(double po, double t) {
  ControllerInput in;
  in.source_fps = 30.0;
  in.offload_rate = po;
  in.timeout_rate = t;
  return in;
}

TEST(Aimd, AdditiveIncreaseWhenClean) {
  AimdController ctl;
  const double po1 = ctl.update(input(0, 0));
  const double po2 = ctl.update(input(po1, 0));
  EXPECT_NEAR(po2 - po1, 0.05 * 30.0, 1e-9);
}

TEST(Aimd, MultiplicativeDecreaseOnTimeouts) {
  AimdController ctl;
  double po = 0;
  for (int i = 0; i < 100; ++i) po = ctl.update(input(po, 0));
  ASSERT_NEAR(po, 30.0, 0.1);
  const double after = ctl.update(input(po, 10.0));
  EXPECT_NEAR(after, po * 0.5, 1e-9);
}

TEST(Aimd, ToleratesSmallTimeoutRates) {
  AimdController ctl;
  double po = 15.0;
  // T below 5% of Fs (1.5/s) counts as clean.
  for (int i = 0; i < 3; ++i) po = ctl.update(input(po, 1.0));
  EXPECT_GT(po, 0.1 * 30.0);
}

TEST(Aimd, FloorKeepsProbing) {
  AimdController ctl;
  double po = 30.0;
  for (int i = 0; i < 50; ++i) po = ctl.update(input(po, 30.0));
  EXPECT_NEAR(po, 0.03 * 30.0, 1e-9);
  EXPECT_GT(po, 0.0);
}

TEST(Aimd, NeverExceedsFs) {
  AimdController ctl;
  double po = 0;
  for (int i = 0; i < 200; ++i) {
    po = ctl.update(input(po, 0));
    EXPECT_LE(po, 30.0);
  }
  EXPECT_DOUBLE_EQ(po, 30.0);
}

TEST(Aimd, ResetReturnsToZeroState) {
  AimdController ctl;
  (void)ctl.update(input(0, 0));
  (void)ctl.update(input(1.5, 0));
  ctl.reset();
  const double po = ctl.update(input(0, 0));
  EXPECT_NEAR(po, 1.5, 1e-9);  // first additive step again
}

TEST(Aimd, SawtoothUnderPeriodicLoss) {
  // Classic AIMD sawtooth: rises linearly, halves on congestion.
  AimdController ctl;
  double po = 15.0;
  double max_seen = 0, min_after_crash = 1e9;
  for (int i = 0; i < 100; ++i) {
    const bool congested = (i % 10 == 9);
    po = ctl.update(input(po, congested ? 10.0 : 0.0));
    max_seen = std::max(max_seen, po);
    if (congested) min_after_crash = std::min(min_after_crash, po);
  }
  EXPECT_GT(max_seen, min_after_crash * 1.5);
}

TEST(Aimd, NameAndPeriod) {
  AimdController ctl;
  EXPECT_EQ(ctl.name(), "aimd");
  EXPECT_EQ(ctl.measure_period(), kSecond);
  EXPECT_FALSE(ctl.wants_probe());
}

}  // namespace
}  // namespace ff::control
