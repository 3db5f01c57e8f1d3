#include "ff/util/stats.h"

#include <algorithm>
#include <cmath>

namespace ff {

void StreamingStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::reset() { *this = StreamingStats{}; }

double StreamingStats::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double StreamingStats::sample_variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

P2Quantile::P2Quantile(double q) : q_(q) {
  desired_[0] = 1;
  desired_[1] = 1 + 2 * q;
  desired_[2] = 1 + 4 * q;
  desired_[3] = 3 + 2 * q;
  desired_[4] = 5;
  increments_[0] = 0;
  increments_[1] = q / 2;
  increments_[2] = q;
  increments_[3] = (1 + q) / 2;
  increments_[4] = 1;
  for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  ++count_;

  int k = 0;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Parabolic (P²) interpolation, falling back to linear when it would
      // reorder the markers.
      const double qp =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < qp && qp < heights_[i + 1]) {
        heights_[i] = qp;
      } else {
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Not enough samples for the marker invariant; fall back to an exact
    // small-sample quantile.
    double tmp[5];
    std::copy(heights_, heights_ + count_, tmp);
    std::sort(tmp, tmp + count_);
    const double idx = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = idx - static_cast<double>(lo);
    return tmp[lo] * (1.0 - frac) + tmp[hi] * frac;
  }
  return heights_[2];
}

double student_t_975(std::size_t df) {
  // Conventional two-sided 95% table, exact for df <= 30.
  static constexpr double kTable[31] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  constexpr double kZ = 1.960;
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df];
  // Above the table, t(df) ~ z + c/df with c chosen to hit t(30) exactly;
  // the residual versus the true quantile is < 1e-3 everywhere.
  constexpr double kC = (2.042 - kZ) * 30.0;
  return kZ + kC / static_cast<double>(df);
}

MeanCi mean_ci(const std::vector<double>& samples) {
  StreamingStats s;
  for (const double v : samples) s.add(v);
  return mean_ci(s);
}

MeanCi mean_ci(const StreamingStats& stats) {
  // Replicate counts are small (5-10); the normal approximation's 1.96
  // was systematically narrow. Use Student-t with n-1 degrees of freedom.
  return mean_ci(stats, stats.count() > 1 ? student_t_975(stats.count() - 1)
                                          : 0.0);
}

MeanCi mean_ci(const StreamingStats& stats, double z) {
  MeanCi out;
  out.n = stats.count();
  if (stats.empty()) return out;
  out.mean = stats.mean();
  if (stats.count() > 1) {
    out.half_width = z * std::sqrt(stats.sample_variance() /
                                   static_cast<double>(stats.count()));
  }
  return out;
}

}  // namespace ff
