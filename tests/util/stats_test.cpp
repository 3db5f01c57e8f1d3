#include "ff/util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ff/util/rng.h"

namespace ff {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, SampleVarianceUsesNMinusOne) {
  StreamingStats s;
  for (const double v : {1.0, 2.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0 / 3.0);
}

TEST(StreamingStats, MergeMatchesSequential) {
  Rng rng(3);
  StreamingStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmptyIsIdentity) {
  StreamingStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);

  StreamingStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(StreamingStats, NumericallyStableForLargeOffset) {
  StreamingStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(P2Quantile, SmallSampleExact) {
  P2Quantile q(0.5);
  q.add(3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_NEAR(q.value(), 2.0, 1e-12);
}

TEST(P2Quantile, MedianOfUniform) {
  Rng rng(5);
  P2Quantile q(0.5);
  for (int i = 0; i < 100000; ++i) q.add(rng.uniform());
  EXPECT_NEAR(q.value(), 0.5, 0.01);
}

TEST(P2Quantile, P99OfUniform) {
  Rng rng(6);
  P2Quantile q(0.99);
  for (int i = 0; i < 100000; ++i) q.add(rng.uniform());
  EXPECT_NEAR(q.value(), 0.99, 0.01);
}

TEST(P2Quantile, P90OfExponential) {
  Rng rng(7);
  P2Quantile q(0.9);
  for (int i = 0; i < 200000; ++i) q.add(rng.exponential(1.0));
  // True p90 of Exp(1) is ln(10) ~= 2.3026.
  EXPECT_NEAR(q.value(), 2.3026, 0.1);
}

TEST(MeanCiOverloads, StreamingStatsMatchesVectorForm) {
  const std::vector<double> samples{10.0, 12.0, 14.0, 9.0, 11.0};
  StreamingStats s;
  for (const double v : samples) s.add(v);

  const MeanCi from_vector = mean_ci(samples);
  const MeanCi from_stats = mean_ci(s);
  EXPECT_EQ(from_stats.n, from_vector.n);
  EXPECT_DOUBLE_EQ(from_stats.mean, from_vector.mean);
  EXPECT_DOUBLE_EQ(from_stats.half_width, from_vector.half_width);
}

TEST(MeanCiOverloads, StreamingStatsEdgeCases) {
  StreamingStats empty;
  EXPECT_EQ(mean_ci(empty).n, 0u);
  EXPECT_DOUBLE_EQ(mean_ci(empty).half_width, 0.0);

  StreamingStats one;
  one.add(5.0);
  const MeanCi single = mean_ci(one);
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.half_width, 0.0);

  // A custom z widens the interval proportionally.
  StreamingStats two;
  two.add(1.0);
  two.add(3.0);
  EXPECT_DOUBLE_EQ(mean_ci(two, 2.0).half_width,
                   2.0 * mean_ci(two, 1.0).half_width);
}

TEST(StudentT, MatchesTheConventionalTable) {
  EXPECT_DOUBLE_EQ(student_t_975(0), 0.0);
  EXPECT_DOUBLE_EQ(student_t_975(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t_975(4), 2.776);
  EXPECT_DOUBLE_EQ(student_t_975(9), 2.262);
  EXPECT_DOUBLE_EQ(student_t_975(30), 2.042);
  // Above the table: monotone decreasing toward the normal z.
  EXPECT_LT(student_t_975(31), student_t_975(30));
  EXPECT_NEAR(student_t_975(60), 2.000, 0.005);
  EXPECT_NEAR(student_t_975(120), 1.980, 0.005);
  EXPECT_NEAR(student_t_975(100000), 1.960, 1e-3);
}

TEST(MeanCi, DefaultsToStudentTForSmallSamples) {
  // n = 3, s = 2: half-width must be t(2) * s / sqrt(3), not 1.96-based.
  const std::vector<double> samples{10.0, 12.0, 14.0};
  const MeanCi ci = mean_ci(samples);
  const double expect = 4.303 * 2.0 / std::sqrt(3.0);
  EXPECT_DOUBLE_EQ(ci.mean, 12.0);
  EXPECT_DOUBLE_EQ(ci.half_width, expect);
  // Regression: the old normal interval was systematically narrow.
  EXPECT_GT(ci.half_width, 1.96 * 2.0 / std::sqrt(3.0));
}

TEST(MeanCi, TypicalReplicateCountsUseTheRightCriticalValue) {
  // The sweep engine's common replicate counts.
  for (const std::size_t n : {2u, 5u, 10u}) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<double>(i));
    }
    StreamingStats s;
    for (const double v : samples) s.add(v);
    const double sd = std::sqrt(s.sample_variance());
    const MeanCi ci = mean_ci(samples);
    EXPECT_DOUBLE_EQ(ci.half_width, student_t_975(n - 1) * sd /
                                        std::sqrt(static_cast<double>(n)))
        << n;
  }
}

TEST(P2QuantileDegenerate, EmptyReturnsZero) {
  const P2Quantile q(0.9);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);
  EXPECT_EQ(q.count(), 0u);
}

TEST(P2QuantileDegenerate, ConstantStreamIsExactAtEveryLength) {
  // A constant stream makes every marker height equal, so the parabolic
  // update's divisions by marker gaps must not produce NaN or drift.
  for (const int n : {1, 2, 4, 5, 6, 100, 10000}) {
    P2Quantile q(0.99);
    for (int i = 0; i < n; ++i) q.add(7.25);
    EXPECT_DOUBLE_EQ(q.value(), 7.25) << "n=" << n;
    EXPECT_EQ(q.count(), static_cast<std::size_t>(n));
  }
}

TEST(P2QuantileDegenerate, SmallSamplePathIsExact) {
  // n < 5 takes the exact sorted-sample path, interpolating between order
  // statistics; verify each length below the marker threshold.
  P2Quantile q(0.5);
  q.add(9.0);
  EXPECT_DOUBLE_EQ(q.value(), 9.0);  // n=1
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);  // n=2: midpoint
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);  // n=3: middle order statistic
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 4.0);  // n=4: between 3 and 5

  P2Quantile p90(0.9);
  p90.add(0.0);
  p90.add(10.0);
  EXPECT_DOUBLE_EQ(p90.value(), 9.0);  // 0.9 * (n-1) between the two
}

TEST(P2QuantileDegenerate, DuplicateHeightsDoNotPoisonMarkers) {
  // Long runs of duplicates collapse adjacent marker heights; updates
  // must fall back to linear interpolation instead of dividing by zero.
  P2Quantile q(0.5);
  for (int i = 0; i < 1000; ++i) q.add(5.0);
  for (int i = 0; i < 1000; ++i) q.add(10.0);
  const double v = q.value();
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(v, 5.0);
  EXPECT_LE(v, 10.0);

  // Two-valued stream with a 9:1 ratio: the median must sit on the
  // dominant value.
  P2Quantile heavy(0.5);
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    heavy.add(rng.uniform() < 0.9 ? 1.0 : 2.0);
  }
  EXPECT_NEAR(heavy.value(), 1.0, 0.05);
}

TEST(StreamingStatsProperty, MergeIsAssociativeAndOrderInsensitive) {
  // (a . b) . c == a . (b . c) and both match streaming the
  // concatenation, for random partitions of a random stream.
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    StreamingStats a, b, c, whole;
    const int n = 1 + static_cast<int>(rng.uniform() * 300);
    for (int i = 0; i < n; ++i) {
      const double v = rng.normal(0.0, 10.0);
      whole.add(v);
      const double u = rng.uniform();
      (u < 0.34 ? a : (u < 0.67 ? b : c)).add(v);
    }
    StreamingStats left_first = a;   // (a . b) . c
    left_first.merge(b);
    left_first.merge(c);
    StreamingStats right_first = b;  // a . (b . c)
    right_first.merge(c);
    StreamingStats right_total = a;
    right_total.merge(right_first);

    EXPECT_EQ(left_first.count(), whole.count());
    EXPECT_EQ(right_total.count(), whole.count());
    EXPECT_NEAR(left_first.mean(), right_total.mean(), 1e-9);
    EXPECT_NEAR(left_first.variance(), right_total.variance(), 1e-7);
    EXPECT_NEAR(left_first.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left_first.variance(), whole.variance(), 1e-7);
    EXPECT_DOUBLE_EQ(left_first.min(), whole.min());
    EXPECT_DOUBLE_EQ(left_first.max(), whole.max());
    EXPECT_DOUBLE_EQ(right_total.min(), whole.min());
    EXPECT_DOUBLE_EQ(right_total.max(), whole.max());
  }
}

// Property sweep: P2 approximates exact quantiles across distributions and
// quantile levels.
class P2AccuracySweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(P2AccuracySweep, TracksExactQuantile) {
  const double q = std::get<0>(GetParam());
  const int dist = std::get<1>(GetParam());
  Rng rng(100 + dist);
  P2Quantile p2(q);
  std::vector<double> all;
  const int n = 50000;
  all.reserve(n);
  for (int i = 0; i < n; ++i) {
    double v = 0;
    switch (dist) {
      case 0: v = rng.uniform(); break;
      case 1: v = rng.normal(5.0, 2.0); break;
      case 2: v = rng.exponential(3.0); break;
    }
    p2.add(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  const double exact = all[static_cast<std::size_t>(q * (n - 1))];
  const double spread = all.back() - all.front();
  EXPECT_NEAR(p2.value(), exact, 0.02 * spread)
      << "q=" << q << " dist=" << dist;
}

INSTANTIATE_TEST_SUITE_P(
    QuantilesAndDistributions, P2AccuracySweep,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.9, 0.99),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace ff
