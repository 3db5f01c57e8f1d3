#pragma once

// Terminal rendering of time series so each bench binary can show the shape
// of the paper figure it reproduces without external tooling.

#include <string>
#include <vector>

#include "ff/util/time_series.h"

namespace ff {

struct PlotOptions {
  std::size_t width{100};   ///< columns of the plotting area
  std::size_t height{16};   ///< rows of the plotting area
  double y_min{0.0};
  double y_max{-1.0};       ///< < y_min means autoscale
  std::string title;
};

/// Renders one or more series on a shared axis; each series gets its own
/// glyph, named in a legend line. Series are resampled onto the column grid
/// by bucket-mean.
[[nodiscard]] std::string plot_series(
    const std::vector<const TimeSeries*>& series,
                                      const PlotOptions& options);

[[nodiscard]] std::string plot_series(const TimeSeries& series,
                                      const PlotOptions& options);

/// One-line sparkline of a series (8-level unicode blocks).
[[nodiscard]] std::string sparkline(const TimeSeries& series,
                                    std::size_t width = 80);

/// Fixed-width table printer used by the paper-table benches.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimals.
[[nodiscard]] std::string fmt(double v, int digits = 2);

}  // namespace ff
