#include "ff/control/quality_adapt.h"

#include <gtest/gtest.h>

namespace ff::control {
namespace {

ControllerInput input(double po, double tn, double tl = 0.0) {
  ControllerInput in;
  in.source_fps = 30.0;
  in.offload_rate = po;
  in.network_timeout_rate = tn;
  in.load_timeout_rate = tl;
  in.timeout_rate = tn + tl;
  return in;
}

TEST(QualityAdapt, StartsAtTopOfLadder) {
  QualityAdaptController ctl;
  ASSERT_TRUE(ctl.frame_quality().has_value());
  EXPECT_EQ(*ctl.frame_quality(), 85);
  EXPECT_EQ(ctl.ladder_index(), 0u);
}

TEST(QualityAdapt, NetworkPressureStepsQualityDown) {
  QualityAdaptController ctl;
  (void)ctl.update(input(20.0, 10.0));  // Tn >> 0.1*Fs
  EXPECT_EQ(*ctl.frame_quality(), 70);
}

TEST(QualityAdapt, LoadTimeoutsDoNotTouchQuality) {
  // Smaller frames cannot help a saturated GPU.
  QualityAdaptController ctl;
  for (int i = 0; i < 10; ++i) {
    (void)ctl.update(input(20.0, 0.0, 15.0));
  }
  EXPECT_EQ(*ctl.frame_quality(), 85);
}

TEST(QualityAdapt, CooldownSpacesDowngrades) {
  QualityAdaptController ctl;
  (void)ctl.update(input(20.0, 10.0));  // -> 70, cooldown 3
  (void)ctl.update(input(20.0, 10.0));  // cooldown
  (void)ctl.update(input(20.0, 10.0));  // cooldown
  EXPECT_EQ(*ctl.frame_quality(), 70);
  (void)ctl.update(input(20.0, 10.0));  // cooldown elapsed -> 55
  EXPECT_EQ(*ctl.frame_quality(), 55);
}

TEST(QualityAdapt, BottomOfLadderHolds) {
  QualityAdaptController ctl;
  for (int i = 0; i < 50; ++i) (void)ctl.update(input(20.0, 10.0));
  EXPECT_EQ(*ctl.frame_quality(), 40);  // last rung, never below
}

TEST(QualityAdapt, RecoversQualityAfterCleanStreakAtHighPo) {
  QualityAdaptController ctl;
  (void)ctl.update(input(30.0, 10.0));  // -> 70, cooldown 3
  ASSERT_EQ(*ctl.frame_quality(), 70);
  // Clean and pinned at Fs: the fifth clean period, with the cooldown
  // long over, steps back up.
  for (int i = 0; i < 4; ++i) (void)ctl.update(input(30.0, 0.0));
  EXPECT_EQ(*ctl.frame_quality(), 70);
  (void)ctl.update(input(30.0, 0.0));
  EXPECT_EQ(*ctl.frame_quality(), 85);
}

TEST(QualityAdapt, NoUpgradeWhileRateIsLow) {
  QualityAdaptController ctl;
  (void)ctl.update(input(30.0, 10.0));  // -> 70
  // Clean but Po well below Fs: conditions not yet proven.
  for (int i = 0; i < 10; ++i) (void)ctl.update(input(10.0, 0.0));
  EXPECT_EQ(*ctl.frame_quality(), 70);
}

TEST(QualityAdapt, RateLoopStillRuns) {
  QualityAdaptController ctl;
  double po = 0.0;
  for (int i = 0; i < 40; ++i) {
    ControllerInput in = input(po, 0.0);
    po = ctl.update(in);
  }
  EXPECT_NEAR(po, 30.0, 1.0);  // the inner PD ramp
}

TEST(QualityAdapt, ResetRestoresTopQuality) {
  QualityAdaptController ctl;
  (void)ctl.update(input(20.0, 10.0));
  ASSERT_EQ(*ctl.frame_quality(), 70);
  ctl.reset();
  EXPECT_EQ(*ctl.frame_quality(), 85);
  EXPECT_EQ(ctl.ladder_index(), 0u);
}

TEST(QualityAdapt, NameAndPeriod) {
  QualityAdaptController ctl;
  EXPECT_EQ(ctl.name(), "quality-adapt");
  EXPECT_EQ(ctl.measure_period(), kSecond);
  EXPECT_FALSE(ctl.wants_probe());
}

TEST(QualityAdapt, BaseControllersReportNoQuality) {
  FrameFeedbackController ff;
  EXPECT_FALSE(ff.frame_quality().has_value());
}

}  // namespace
}  // namespace ff::control
