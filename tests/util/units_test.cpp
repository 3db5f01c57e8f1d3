#include "ff/util/units.h"

#include <gtest/gtest.h>

namespace ff {
namespace {

TEST(Units, ChronoConversion) {
  EXPECT_EQ(to_sim(std::chrono::milliseconds(250)), 250 * kMillisecond);
  EXPECT_EQ(to_sim(std::chrono::seconds(2)), 2 * kSecond);
}

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(seconds_to_sim(1.5), 3 * kSecond / 2);
  EXPECT_DOUBLE_EQ(sim_to_seconds(seconds_to_sim(12.25)), 12.25);
  // Negative times round half away from zero, mirroring positive ones.
  EXPECT_EQ(seconds_to_sim(-1.0), -kSecond);
  EXPECT_EQ(seconds_to_sim(-0.001), -kMillisecond);
  EXPECT_EQ(seconds_to_sim(-1.5), -3 * kSecond / 2);
  EXPECT_DOUBLE_EQ(sim_to_seconds(seconds_to_sim(-12.25)), -12.25);
  static_assert(seconds_to_sim(-1.0) == -kSecond);
}

TEST(Units, RatePeriod) {
  EXPECT_EQ(Rate{30.0}.period(), 33333 + 0);  // 1e6/30 rounded
  EXPECT_EQ(Rate{1.0}.period(), kSecond);
  // Zero rate: effectively never.
  EXPECT_GT(Rate{0.0}.period(), 1000LL * 365 * 24 * 3600 * kSecond / 1000);
}

TEST(Units, BandwidthSerialization) {
  const Bandwidth bw = Bandwidth::mbps(8.0);  // 1 byte per microsecond
  EXPECT_EQ(bw.serialization_time(Bytes{1000}), 1000);
  EXPECT_EQ(Bandwidth::kbps(8.0).serialization_time(Bytes{1}), 1000);
}

TEST(Units, ZeroBandwidthNeverCompletes) {
  const Bandwidth bw{0.0};
  EXPECT_GT(bw.serialization_time(Bytes{1}),
            1000LL * 365 * 24 * 3600 * kSecond / 1000);
}

TEST(Units, BytesAddition) {
  EXPECT_EQ((Bytes{3} + Bytes{4}).count, 7);
}

TEST(Units, Comparisons) {
  EXPECT_LT(Rate{1.0}, Rate{2.0});
  EXPECT_LT(Bytes{1}, Bytes{2});
  EXPECT_LT(Bandwidth::kbps(1), Bandwidth::mbps(1));
}

}  // namespace
}  // namespace ff
