#include "ff/server/reservation.h"

#include <gtest/gtest.h>

#include "ff/control/reservation_controller.h"

namespace ff::server {
namespace {

/// A belief whose grantable 90 % (the manager's safety factor) is `fps`.
ReservationConfig grantable(double fps) { return {fps / 0.9}; }

TEST(Reservation, SingleClientGetsDemandUpToCapacity) {
  ReservationManager mgr(grantable(100.0));
  EXPECT_DOUBLE_EQ(mgr.request(1, 30.0), 30.0);
  EXPECT_DOUBLE_EQ(mgr.request(1, 300.0), 100.0);
}

TEST(Reservation, SafetyFactorReducesGrantable) {
  ReservationManager mgr({100.0});
  EXPECT_DOUBLE_EQ(mgr.request(1, 300.0), 90.0);
}

TEST(Reservation, EqualSplitWhenOversubscribed) {
  ReservationManager mgr(grantable(90.0));
  (void)mgr.request(1, 100.0);
  (void)mgr.request(2, 100.0);
  (void)mgr.request(3, 100.0);
  EXPECT_DOUBLE_EQ(mgr.granted(1), 30.0);
  EXPECT_DOUBLE_EQ(mgr.granted(2), 30.0);
  EXPECT_DOUBLE_EQ(mgr.granted(3), 30.0);
  EXPECT_DOUBLE_EQ(mgr.total_granted(), 90.0);
}

TEST(Reservation, WaterFillingFavorsSmallDemands) {
  ReservationManager mgr(grantable(90.0));
  (void)mgr.request(1, 10.0);   // small demand fully satisfied
  (void)mgr.request(2, 100.0);  // big demands split the rest
  (void)mgr.request(3, 100.0);
  EXPECT_DOUBLE_EQ(mgr.granted(1), 10.0);
  EXPECT_DOUBLE_EQ(mgr.granted(2), 40.0);
  EXPECT_DOUBLE_EQ(mgr.granted(3), 40.0);
}

TEST(Reservation, ReleaseRedistributes) {
  ReservationManager mgr(grantable(90.0));
  (void)mgr.request(1, 100.0);
  (void)mgr.request(2, 100.0);
  EXPECT_DOUBLE_EQ(mgr.granted(1), 45.0);
  mgr.release(2);
  // Client 1's grant is recomputed on the next interaction.
  EXPECT_DOUBLE_EQ(mgr.request(1, 100.0), 90.0);
  EXPECT_EQ(mgr.client_count(), 1u);
}

TEST(Reservation, UnknownClientHasZeroGrant) {
  ReservationManager mgr(grantable(100.0));
  EXPECT_DOUBLE_EQ(mgr.granted(42), 0.0);
}

TEST(Reservation, NegativeDemandClampedToZero) {
  ReservationManager mgr(grantable(100.0));
  EXPECT_DOUBLE_EQ(mgr.request(1, -5.0), 0.0);
}

TEST(Reservation, TotalNeverExceedsCapacity) {
  ReservationManager mgr({100.0});
  for (std::uint64_t i = 0; i < 20; ++i) {
    (void)mgr.request(i, 30.0);
  }
  EXPECT_LE(mgr.total_granted(), 90.0 + 1e-9);
}

TEST(ReservationController, GrantsBecomeOffloadRate) {
  ReservationManager mgr(grantable(45.0));
  control::ReservationController a(mgr, 1);
  control::ReservationController b(mgr, 2);
  control::ControllerInput in;
  in.source_fps = 30.0;
  EXPECT_DOUBLE_EQ(a.update(in), 30.0);  // alone: full demand
  // Second client joins: both re-request and split 45.
  (void)b.update(in);
  EXPECT_DOUBLE_EQ(a.update(in), 22.5);
  EXPECT_DOUBLE_EQ(b.update(in), 22.5);
}

TEST(ReservationController, IgnoresTimeouts) {
  ReservationManager mgr(grantable(200.0));
  control::ReservationController ctl(mgr, 1);
  control::ControllerInput in;
  in.source_fps = 30.0;
  in.timeout_rate = 30.0;  // catastrophic -- and ignored by design
  EXPECT_DOUBLE_EQ(ctl.update(in), 30.0);
}

TEST(ReservationController, DestructionReleasesShare) {
  ReservationManager mgr(grantable(60.0));
  control::ControllerInput in;
  in.source_fps = 30.0;
  control::ReservationController a(mgr, 1);
  {
    control::ReservationController b(mgr, 2);
    (void)a.update(in);
    (void)b.update(in);
    EXPECT_DOUBLE_EQ(mgr.granted(1), 30.0);
  }
  EXPECT_EQ(mgr.client_count(), 1u);
  EXPECT_DOUBLE_EQ(a.update(in), 30.0);
}

TEST(ReservationController, Name) {
  ReservationManager mgr(grantable(100.0));
  control::ReservationController ctl(mgr, 1);
  EXPECT_EQ(ctl.name(), "reservation");
  EXPECT_FALSE(ctl.wants_probe());
}

}  // namespace
}  // namespace ff::server
