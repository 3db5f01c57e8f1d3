#include "ff/util/ascii_plot.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace ff {
namespace {

constexpr char kGlyphs[] = {'*', '+', 'o', 'x', '@', '#', '%', '&'};

struct Scaled {
  std::vector<double> columns;  // NaN = no data in that column
};

Scaled scale_to_columns(const TimeSeries& s, SimTime t_end, std::size_t width) {
  Scaled out;
  out.columns.assign(width, std::nan(""));
  if (s.empty() || t_end <= 0) return out;
  std::vector<double> sums(width, 0.0);
  std::vector<std::size_t> counts(width, 0);
  for (const auto& p : s.points()) {
    auto col = static_cast<std::size_t>(
        static_cast<double>(p.time) / static_cast<double>(t_end) *
        static_cast<double>(width));
    col = std::min(col, width - 1);
    sums[col] += p.value;
    ++counts[col];
  }
  for (std::size_t c = 0; c < width; ++c) {
    if (counts[c]) out.columns[c] = sums[c] / static_cast<double>(counts[c]);
  }
  return out;
}

}  // namespace

std::string plot_series(const std::vector<const TimeSeries*>& series,
                        const PlotOptions& options) {
  std::ostringstream os;
  if (series.empty()) return "";

  SimTime t_end = 0;
  double y_min = options.y_min;
  double y_max = options.y_max;
  const bool autoscale = y_max < y_min;
  if (autoscale) {
    y_min = 1e300;
    y_max = -1e300;
  }
  for (const auto* s : series) {
    if (!s->empty()) t_end = std::max(t_end, s->points().back().time);
    if (autoscale) {
      const auto st = s->stats();
      if (!st.empty()) {
        y_min = std::min(y_min, st.min());
        y_max = std::max(y_max, st.max());
      }
    }
  }
  if (autoscale && y_min > y_max) {
    y_min = 0;
    y_max = 1;
  }
  if (y_max <= y_min) y_max = y_min + 1.0;

  std::vector<Scaled> scaled;
  scaled.reserve(series.size());
  for (const auto* s : series) {
    scaled.push_back(scale_to_columns(*s, t_end, options.width));
  }

  if (!options.title.empty()) os << options.title << "\n";

  std::vector<std::string> grid(options.height, std::string(options.width,
                                                            ' '));
  for (std::size_t si = 0; si < scaled.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    for (std::size_t c = 0; c < options.width; ++c) {
      const double v = scaled[si].columns[c];
      if (std::isnan(v)) continue;
      double frac = (v - y_min) / (y_max - y_min);
      frac = std::clamp(frac, 0.0, 1.0);
      const auto row = static_cast<std::size_t>(
          std::round(frac * static_cast<double>(options.height - 1)));
      grid[options.height - 1 - row][c] = glyph;
    }
  }

  std::ostringstream top, bottom;
  top << std::setprecision(4) << y_max;
  bottom << std::setprecision(4) << y_min;
  const std::size_t label_w =
      std::max(top.str().size(), bottom.str().size()) + 1;

  for (std::size_t r = 0; r < options.height; ++r) {
    std::string label(label_w, ' ');
    if (r == 0) label = top.str() + std::string(label_w - top.str().size(),
                                                ' ');
    if (r == options.height - 1) {
      label = bottom.str() + std::string(label_w - bottom.str().size(), ' ');
    }
    os << label << "|" << grid[r] << "\n";
  }
  os << std::string(label_w, ' ') << "+" << std::string(options.width, '-')
      << "\n";
  os << std::string(label_w, ' ') << "0s" << std::string(options.width > 12
      ? options.width - 10 : 0, ' ')
     << std::fixed << std::setprecision(0) << sim_to_seconds(t_end) << "s\n";

  os << "  legend:";
  for (std::size_t si = 0; si < series.size(); ++si) {
    os << "  " << kGlyphs[si % sizeof(kGlyphs)] << "=" << series[si]->name();
  }
  os << "\n";
  return os.str();
}

std::string plot_series(const TimeSeries& series, const PlotOptions& options) {
  return plot_series(std::vector<const TimeSeries*>{&series}, options);
}

std::string sparkline(const TimeSeries& series, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (series.empty()) return "";
  const SimTime t_end = series.points().back().time;
  const Scaled sc = scale_to_columns(series, std::max<SimTime>(t_end, 1),
                                     width);
  const auto st = series.stats();
  const double lo = st.min();
  const double span = std::max(st.max() - lo, 1e-12);
  std::string out;
  double last = lo;
  for (const double v : sc.columns) {
    const double x = std::isnan(v) ? last : v;
    last = x;
    auto idx = static_cast<std::size_t>((x - lo) / span * 7.999);
    idx = std::min<std::size_t>(idx, 7);
    out += kBlocks[idx];
  }
  return out;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : headers_[0];
      os << " " << v << std::string(widths[c] - v.size(), ' ') << " |";
    }
    os << "\n";
  };
  emit_row(headers_);
  os << "|";
  for (const std::size_t w : widths) os << std::string(w + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

}  // namespace ff
