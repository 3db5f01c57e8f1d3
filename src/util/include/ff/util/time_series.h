#pragma once

// Timestamped value series: the primary artifact every experiment produces.
// Figures 2-4 of the paper are rendered from these.

#include <cstddef>
#include <string>
#include <vector>

#include "ff/util/stats.h"
#include "ff/util/units.h"

namespace ff {

/// A single (time, value) observation.
struct TimePoint {
  SimTime time{0};
  double value{0.0};
};

/// Append-only series of observations ordered by insertion time.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void record(SimTime t, double value) { points_.push_back({t, value}); }
  void reserve(std::size_t n) { points_.reserve(n); }
  void clear() { points_.clear(); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] const TimePoint& at(std::size_t i) const {
    return points_.at(i);
  }
  [[nodiscard]] const std::vector<TimePoint>& points() const { return points_; }
  [[nodiscard]] auto begin() const { return points_.begin(); }
  [[nodiscard]] auto end() const { return points_.end(); }

  /// Statistics over the values whose timestamp lies in [from, to).
  [[nodiscard]] StreamingStats stats_between(SimTime from, SimTime to) const;

  /// Statistics over the whole series.
  [[nodiscard]] StreamingStats stats() const;

  /// Mean value in [from, to); 0 when the window is empty.
  [[nodiscard]] double mean_between(SimTime from, SimTime to) const;

  /// Sum of |x[i+1] - x[i]| (total variation); the tuning benches use it to
  /// rank controller stability.
  [[nodiscard]] double total_variation() const;

 private:
  std::string name_;
  std::vector<TimePoint> points_;
};

/// A labeled bundle of series sharing one time axis (one experiment run).
class SeriesBundle {
 public:
  /// Returns the series with `name`, creating it on first use.
  TimeSeries& series(const std::string& name);

  [[nodiscard]] const TimeSeries* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<TimeSeries> entries_;
};

}  // namespace ff
