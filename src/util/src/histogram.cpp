#include "ff/util/histogram.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ff {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto i = static_cast<std::size_t>((x - lo_) / bin_width_);
    i = std::min(i, counts_.size() - 1);
    ++counts_[i];
  }
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  underflow_ = overflow_ = total_ = 0;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + bin_width_ * static_cast<double>(i);
}
double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + bin_width_; }

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t cum = underflow_;
  if (cum > target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum > target) return bin_lo(i) + bin_width_ * 0.5;
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    os << "[" << bin_lo(i) << ", " << bin_hi(i) << ") "
       << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  if (underflow_) os << "underflow " << underflow_ << "\n";
  if (overflow_) os << "overflow " << overflow_ << "\n";
  return os.str();
}

}  // namespace ff
