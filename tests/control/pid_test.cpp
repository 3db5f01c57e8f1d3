#include "ff/control/pid.h"

#include <gtest/gtest.h>

namespace ff::control {
namespace {

TEST(Pid, PureProportional) {
  PidConfig c;
  c.kp = 2.0;
  c.ki = 0.0;
  c.kd = 0.0;
  PidController pid(c);
  EXPECT_DOUBLE_EQ(pid.step(3.0), 6.0);
  EXPECT_DOUBLE_EQ(pid.step(-1.0), -2.0);
}

TEST(Pid, DerivativeOnFirstStepIsZero) {
  PidConfig c;
  c.kp = 0.0;
  c.kd = 1.0;
  PidController pid(c);
  EXPECT_DOUBLE_EQ(pid.step(5.0), 0.0);  // no previous error yet
  EXPECT_DOUBLE_EQ(pid.step(8.0), 3.0);  // de = 3
  EXPECT_DOUBLE_EQ(pid.step(8.0), 0.0);  // de = 0
}

TEST(Pid, DerivativeScalesWithDt) {
  PidConfig c;
  c.kp = 0.0;
  c.kd = 1.0;
  PidController pid(c);
  (void)pid.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.step(4.0, 2.0), 2.0);  // de/dt = 4/2
}

TEST(Pid, IntegralAccumulates) {
  PidConfig c;
  c.kp = 0.0;
  c.ki = 1.0;
  c.kd = 0.0;
  PidController pid(c);
  EXPECT_DOUBLE_EQ(pid.step(1.0), 1.0);
  EXPECT_DOUBLE_EQ(pid.step(1.0), 2.0);
  EXPECT_DOUBLE_EQ(pid.step(-2.0), 0.0);
}

TEST(Pid, IntegralScalesWithDt) {
  PidConfig c;
  c.ki = 1.0;
  c.kp = 0.0;
  c.kd = 0.0;
  PidController pid(c);
  EXPECT_DOUBLE_EQ(pid.step(1.0, 0.5), 0.5);
}

TEST(Pid, ResetClearsState) {
  PidConfig c;
  c.kp = 1.0;
  c.ki = 1.0;
  c.kd = 1.0;
  PidController pid(c);
  (void)pid.step(5.0);
  (void)pid.step(7.0);
  pid.reset();
  EXPECT_DOUBLE_EQ(pid.integral(), 0.0);
  // First step after reset has zero derivative again.
  EXPECT_DOUBLE_EQ(pid.step(3.0), 3.0 + 3.0);  // kp*e + ki*int(=3) + kd*0
}

TEST(Pid, NonPositiveDtTreatedAsUnit) {
  PidConfig c;
  c.kp = 1.0;
  PidController pid(c);
  EXPECT_DOUBLE_EQ(pid.step(2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(pid.step(2.0, -5.0), 2.0);
}

TEST(Pid, PdConvergesOnFirstOrderPlant) {
  // Classic sanity: PD controller drives a leaky integrator plant to the
  // setpoint without oscillating out of control.
  PidConfig c;
  c.kp = 0.5;
  c.kd = 0.2;
  PidController pid(c);
  double pv = 0.0;
  const double sp = 10.0;
  for (int i = 0; i < 200; ++i) {
    const double u = pid.step(sp - pv);
    pv += u;  // plant: pure accumulator
  }
  EXPECT_NEAR(pv, sp, 0.1);
}

}  // namespace
}  // namespace ff::control
