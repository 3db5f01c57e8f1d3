#include "ff/util/time_series.h"

#include <gtest/gtest.h>

namespace ff {
namespace {

TEST(TimeSeries, RecordAndAccess) {
  TimeSeries s("P");
  s.record(0, 1.0);
  s.record(kSecond, 2.0);
  EXPECT_EQ(s.name(), "P");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at(1).time, kSecond);
  EXPECT_DOUBLE_EQ(s.at(1).value, 2.0);
}

TEST(TimeSeries, StatsBetweenHalfOpenWindow) {
  TimeSeries s;
  for (int i = 0; i < 10; ++i) s.record(i * kSecond, i);
  const auto st = s.stats_between(2 * kSecond, 5 * kSecond);
  EXPECT_EQ(st.count(), 3u);  // t=2,3,4
  EXPECT_DOUBLE_EQ(st.mean(), 3.0);
}

TEST(TimeSeries, MeanBetweenEmptyWindowIsZero) {
  TimeSeries s;
  s.record(0, 5.0);
  EXPECT_DOUBLE_EQ(s.mean_between(10 * kSecond, 20 * kSecond), 0.0);
}

TEST(TimeSeries, StatsWholeSeries) {
  TimeSeries s;
  s.record(0, 1.0);
  s.record(1, 3.0);
  EXPECT_DOUBLE_EQ(s.stats().mean(), 2.0);
}

TEST(TimeSeries, TotalVariation) {
  TimeSeries s;
  s.record(0, 0.0);
  EXPECT_DOUBLE_EQ(s.total_variation(), 0.0);  // a single point
  s.record(1, 5.0);
  s.record(2, 3.0);
  s.record(3, 3.0);
  EXPECT_DOUBLE_EQ(s.total_variation(), 7.0);
}

TEST(SeriesBundle, CreatesOnFirstUse) {
  SeriesBundle b;
  EXPECT_EQ(b.find("P"), nullptr);
  b.series("P").record(0, 1.0);
  ASSERT_NE(b.find("P"), nullptr);
  EXPECT_EQ(b.find("P")->size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(SeriesBundle, ReturnsSameSeriesForSameName) {
  SeriesBundle b;
  b.series("T").record(0, 1.0);
  b.series("T").record(1, 2.0);
  EXPECT_EQ(b.find("T")->size(), 2u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(SeriesBundle, NamesInInsertionOrder) {
  SeriesBundle b;
  b.series("P");
  b.series("T");
  b.series("Po");
  const auto names = b.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "P");
  EXPECT_EQ(names[2], "Po");
}

}  // namespace
}  // namespace ff
