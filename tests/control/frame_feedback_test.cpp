#include "ff/control/frame_feedback.h"

#include <gtest/gtest.h>

namespace ff::control {
namespace {

ControllerInput input(double po, double t, double fs = 30.0) {
  ControllerInput in;
  in.source_fps = fs;
  in.offload_rate = po;
  in.timeout_rate = t;
  return in;
}

TEST(FrameFeedback, DefaultsMatchPaperTableIV) {
  const FrameFeedbackController ctl;
  EXPECT_DOUBLE_EQ(ctl.config().kp, 0.2);
  EXPECT_DOUBLE_EQ(ctl.config().kd, 0.26);
  EXPECT_DOUBLE_EQ(ctl.config().ki, 0.0);
  EXPECT_DOUBLE_EQ(ctl.config().update_min_fraction, -0.5);
  EXPECT_DOUBLE_EQ(FrameFeedbackController::kUpdateMaxFraction, 0.1);
  EXPECT_EQ(ctl.measure_period(), kSecond);
  EXPECT_EQ(ctl.name(), "frame-feedback");
  EXPECT_FALSE(FrameFeedbackController().wants_probe());
}

TEST(FrameFeedback, ErrorFollowsEquation5NoTimeouts) {
  // T == 0: e = Fs - Po.
  FrameFeedbackConfig c;
  c.initial_offload_rate = 12.0;
  FrameFeedbackController ctl(c);
  (void)ctl.update(input(12.0, 0.0));
  EXPECT_DOUBLE_EQ(ctl.last_error(), 30.0 - 12.0);
}

TEST(FrameFeedback, ErrorFollowsEquation5WithTimeouts) {
  // T > 0: e = 0.1*Fs - T.
  FrameFeedbackConfig c;
  c.initial_offload_rate = 20.0;
  FrameFeedbackController ctl(c);
  (void)ctl.update(input(20.0, 7.0));
  EXPECT_DOUBLE_EQ(ctl.last_error(), 3.0 - 7.0);
}

TEST(FrameFeedback, RampsTowardFsUnderCleanConditions) {
  FrameFeedbackController ctl;
  double po = 0.0;
  for (int i = 0; i < 40; ++i) po = ctl.update(input(po, 0.0));
  EXPECT_NEAR(po, 30.0, 0.5);
}

TEST(FrameFeedback, UpwardUpdatesCappedAtTenthOfFs) {
  FrameFeedbackController ctl;
  double po = 0.0;
  double prev = 0.0;
  for (int i = 0; i < 20; ++i) {
    po = ctl.update(input(po, 0.0));
    EXPECT_LE(po - prev, 3.0 + 1e-9) << "tick " << i;
    prev = po;
  }
}

TEST(FrameFeedback, TimeoutBurstCausesLargeDrop) {
  FrameFeedbackController ctl;
  double po = 0.0;
  for (int i = 0; i < 40; ++i) po = ctl.update(input(po, 0.0));
  ASSERT_NEAR(po, 30.0, 0.5);
  // Catastrophic timeout burst: T = 30/s. With the paper's gains,
  // u = 0.2*(-27) + 0.26*(-27 - e_prev) ~= -12.4: a drop 4x larger than
  // any climb step, though not at the clamp.
  const double after = ctl.update(input(po, 30.0));
  EXPECT_GT(po - after, 10.0);
  EXPECT_GE(ctl.last_update(), -15.0);  // never beyond the clamp
}

TEST(FrameFeedback, DownwardClampEngagesWithHotGains) {
  FrameFeedbackConfig c;
  c.kp = 1.0;  // e = -27 -> raw u = -34, clamped to -0.5*Fs
  c.initial_offload_rate = 30.0;
  FrameFeedbackController ctl(c);
  const double after = ctl.update(input(30.0, 30.0));
  EXPECT_DOUBLE_EQ(ctl.last_update(), -15.0);
  EXPECT_DOUBLE_EQ(after, 15.0);
}

TEST(FrameFeedback, ReactionToTimeoutsStrongerThanRecovery) {
  // The paper's asymmetric clamp: crashes are 5x faster than climbs.
  const FrameFeedbackConfig c;
  EXPECT_DOUBLE_EQ(
      -c.update_min_fraction / FrameFeedbackController::kUpdateMaxFraction,
      5.0);
}

TEST(FrameFeedback, EquilibriumUnderTotalFailureIsTenthOfFs) {
  // Paper: "Po will stabilize to 0.1*Fs when offloading always fails."
  FrameFeedbackController ctl;
  double po = 30.0;
  // Offloading always fails: T equals whatever we offload.
  for (int i = 0; i < 100; ++i) po = ctl.update(input(po, po));
  EXPECT_NEAR(po, 3.0, 0.8);
}

TEST(FrameFeedback, EquilibriumKeepsProbing) {
  // Even at total failure, Po never drops to zero -- it keeps measuring
  // offload availability.
  FrameFeedbackController ctl;
  double po = 30.0;
  for (int i = 0; i < 200; ++i) po = ctl.update(input(po, po));
  EXPECT_GT(po, 1.0);
}

TEST(FrameFeedback, RecoversImmediatelyWhenConditionsReturn) {
  FrameFeedbackController ctl;
  double po = 30.0;
  for (int i = 0; i < 50; ++i) po = ctl.update(input(po, po));
  const double failed_po = po;
  // Conditions recover: T = 0 from now on.
  for (int i = 0; i < 3; ++i) po = ctl.update(input(po, 0.0));
  EXPECT_GT(po, failed_po + 4.0);  // climbing again within 3 ticks
}

TEST(FrameFeedback, OutputAlwaysInZeroFsRange) {
  FrameFeedbackController ctl;
  double po = 0.0;
  // Adversarial alternating feedback.
  for (int i = 0; i < 200; ++i) {
    po = ctl.update(input(po, (i % 3 == 0) ? 25.0 : 0.0));
    EXPECT_GE(po, 0.0);
    EXPECT_LE(po, 30.0);
  }
}

TEST(FrameFeedback, TimeoutsBelowKneeStillAllowGrowth) {
  // T in (0, 0.1*Fs): e > 0, Po keeps growing (gently).
  FrameFeedbackConfig c;
  c.initial_offload_rate = 10.0;
  FrameFeedbackController ctl(c);
  const double po = ctl.update(input(10.0, 1.0));  // e = 3 - 1 = 2
  EXPECT_GT(po, 10.0);
}

TEST(FrameFeedback, TimeoutsAtKneeHoldSteadyProportionally) {
  FrameFeedbackConfig c;
  c.kd = 0.0;  // isolate the proportional term
  c.initial_offload_rate = 15.0;
  FrameFeedbackController ctl(c);
  const double po = ctl.update(input(15.0, 3.0));  // e = 0 exactly
  EXPECT_DOUBLE_EQ(po, 15.0);
}

TEST(FrameFeedback, UnclampedConfigSkipsLimits) {
  FrameFeedbackConfig c;
  c.clamp_updates = false;
  c.kp = 1.0;
  c.kd = 0.0;
  FrameFeedbackController ctl(c);
  // e = 30, u = 30: full swing in one tick without clamping.
  const double po = ctl.update(input(0.0, 0.0));
  EXPECT_DOUBLE_EQ(po, 30.0);
}

TEST(FrameFeedback, ResetRestoresInitialRate) {
  FrameFeedbackConfig c;
  c.initial_offload_rate = 5.0;
  FrameFeedbackController ctl(c);
  double po = 5.0;
  for (int i = 0; i < 10; ++i) po = ctl.update(input(po, 0.0));
  EXPECT_GT(po, 5.0);
  ctl.reset();
  EXPECT_DOUBLE_EQ(ctl.last_error(), 0.0);
  // First post-reset tick behaves like the first tick ever.
  const double po2 = ctl.update(input(5.0, 0.0));
  EXPECT_NEAR(po2, 5.0 + 3.0, 1e-9);  // clamped +0.1*Fs
}

TEST(FrameFeedback, ScalesWithSourceFps) {
  FrameFeedbackController ctl;
  double po = 0.0;
  for (int i = 0; i < 100; ++i) po = ctl.update(input(po, 0.0, 60.0));
  EXPECT_NEAR(po, 60.0, 1.0);
}

TEST(FrameFeedback, TimeoutEpsilonTreatsTinyTAsZero) {
  FrameFeedbackConfig c;
  c.initial_offload_rate = 10.0;
  FrameFeedbackController ctl(c);
  (void)ctl.update(input(10.0, 1e-12));
  EXPECT_DOUBLE_EQ(ctl.last_error(), 20.0);  // took the T==0 branch
}

// Parameterized stability sweep: for every gain pair the output must stay
// bounded and the update clamped, regardless of feedback pattern.
class GainSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GainSweep, BoundedUnderAdversarialFeedback) {
  FrameFeedbackConfig c;
  c.kp = std::get<0>(GetParam());
  c.kd = std::get<1>(GetParam());
  FrameFeedbackController ctl(c);
  double po = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double t = (i % 7 < 2) ? po : 0.0;  // bursty failures
    po = ctl.update(input(po, t));
    ASSERT_GE(po, 0.0);
    ASSERT_LE(po, 30.0);
    ASSERT_GE(ctl.last_update(), -15.0 - 1e-9);
    ASSERT_LE(ctl.last_update(), 3.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gains, GainSweep,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.5, 1.0, 2.0),
                       ::testing::Values(0.0, 0.26, 0.5, 1.0)));

}  // namespace
}  // namespace ff::control
