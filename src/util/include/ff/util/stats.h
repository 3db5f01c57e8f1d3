#pragma once

// Streaming statistics used by telemetry and the benchmark harness.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ff {

/// Numerically stable streaming mean/variance (Welford's algorithm) with
/// min/max tracking.
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;        ///< population variance
  [[nodiscard]] double sample_variance() const; ///< unbiased (n-1) variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const {
    return mean_ * static_cast<double>(count_);
  }

 private:
  std::size_t count_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// P² (Jain & Chlamtac) single-quantile estimator: O(1) memory streaming
/// percentile, accurate to a fraction of a percent for the smooth latency
/// distributions this project produces.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.99 for p99.
  explicit P2Quantile(double q);

  void add(double x);
  [[nodiscard]] double value() const;
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  double q_;
  std::size_t count_{0};
  double heights_[5]{};
  double positions_[5]{};
  double desired_[5]{};
  double increments_[5]{};
};

/// Mean with a confidence half-width, for multi-seed experiment
/// summaries.
struct MeanCi {
  double mean{0.0};
  double half_width{0.0};  ///< critical value * s / sqrt(n)
  std::size_t n{0};

  [[nodiscard]] double lo() const { return mean - half_width; }
  [[nodiscard]] double hi() const { return mean + half_width; }
};

/// Two-sided 95% Student-t critical value (the 97.5% quantile) for `df`
/// degrees of freedom. Sweep replicate counts are typically 5-10, where
/// the normal z=1.96 understates the interval badly (t(4) = 2.776);
/// exact to the conventional 3-decimal tables for df <= 30, interpolated
/// in 1/df above that, converging to 1.96.
[[nodiscard]] double student_t_975(std::size_t df);

/// Computes mean +- t*s/sqrt(n) over the samples, with the Student-t
/// critical value for n-1 degrees of freedom (95% two-sided interval).
[[nodiscard]] MeanCi mean_ci(const std::vector<double>& samples);

/// Student-t interval from already-streamed statistics (no retained
/// samples).
[[nodiscard]] MeanCi mean_ci(const StreamingStats& stats);

/// Same interval with an explicit critical value.
[[nodiscard]] MeanCi mean_ci(const StreamingStats& stats, double z);

}  // namespace ff
