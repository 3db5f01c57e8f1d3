#pragma once

// Fixed-bin histogram for latency distributions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ff {

/// Linear-bin histogram over [lo, hi); out-of-range samples land in
/// underflow/overflow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void reset();

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Quantile from bin midpoints (approximate), q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Multi-line ASCII rendering (one row per bin) for bench logs.
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_, bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_{0}, overflow_{0}, total_{0};
};

}  // namespace ff
