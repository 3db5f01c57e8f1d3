#include "ff/util/time_series.h"

#include <cmath>

namespace ff {

StreamingStats TimeSeries::stats_between(SimTime from, SimTime to) const {
  StreamingStats s;
  for (const auto& p : points_) {
    if (p.time >= from && p.time < to) s.add(p.value);
  }
  return s;
}

StreamingStats TimeSeries::stats() const {
  StreamingStats s;
  for (const auto& p : points_) s.add(p.value);
  return s;
}

double TimeSeries::mean_between(SimTime from, SimTime to) const {
  return stats_between(from, to).mean();
}

double TimeSeries::total_variation() const {
  double tv = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    tv += std::abs(points_[i].value - points_[i - 1].value);
  }
  return tv;
}

TimeSeries& SeriesBundle::series(const std::string& name) {
  for (auto& s : entries_) {
    if (s.name() == name) return s;
  }
  entries_.emplace_back(name);
  return entries_.back();
}

const TimeSeries* SeriesBundle::find(const std::string& name) const {
  for (const auto& s : entries_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> SeriesBundle::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& s : entries_) out.push_back(s.name());
  return out;
}

}  // namespace ff
