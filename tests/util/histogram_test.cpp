#include "ff/util/histogram.h"

#include <gtest/gtest.h>

#include "ff/util/rng.h"

namespace ff {
namespace {

TEST(Histogram, BinsCoverRange) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.bin_count(), 10u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Histogram, CountsLandInCorrectBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(9.99);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(5), 2u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderflowAndOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(5.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BoundaryValuesGoToLowerEdgeBin) {
  Histogram h(0.0, 10.0, 10);
  h.add(3.0);
  EXPECT_EQ(h.bin(3), 1u);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 0.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
}

TEST(Histogram, QuantileApproximatesUniform) {
  Rng rng(1);
  Histogram h(0.0, 1.0, 100);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.5);
  h.add(2.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.bin(2), 0u);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string r = h.render(10);
  EXPECT_NE(r.find('#'), std::string::npos);
  EXPECT_NE(r.find("[0, 1)"), std::string::npos);
}

}  // namespace
}  // namespace ff
