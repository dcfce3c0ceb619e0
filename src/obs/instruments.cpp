#include "obs/instruments.hpp"

#include <cstdio>

namespace is2::obs {

double HistogramMetric::Snapshot::percentile_ms(double p) const {
  if (histogram.total() == 0) return 0.0;
  const double log_ms = util::histogram_quantile(histogram, p / 100.0);
  // The histogram saw log10 of clamped values, so invert both transforms;
  // the true min/max from stats tighten the clamped edge bins.
  return std::clamp(std::pow(10.0, log_ms), stats.min(), stats.max());
}

std::string HistogramMetric::Snapshot::render(std::size_t max_width) const {
  const std::size_t n = histogram.bins();
  std::size_t first = n, last = 0;
  for (std::size_t b = 0; b < n; ++b) {
    if (histogram.count(b) == 0) continue;
    first = std::min(first, b);
    last = b;
  }
  if (first == n) return "(no samples)\n";
  std::size_t peak = 1;
  for (std::size_t b = first; b <= last; ++b) peak = std::max(peak, histogram.count(b));
  std::string out;
  char buf[64];
  for (std::size_t b = first; b <= last; ++b) {
    const double lo_ms =
        std::pow(10.0, histogram.lo() + static_cast<double>(b) * histogram.bin_width());
    std::snprintf(buf, sizeof buf, "%9.3g ms | ", lo_ms);
    out += buf;
    const auto w = static_cast<std::size_t>(static_cast<double>(histogram.count(b)) /
                                            static_cast<double>(peak) *
                                            static_cast<double>(max_width));
    out.append(w, '#');
    std::snprintf(buf, sizeof buf, " %zu\n", histogram.count(b));
    out += buf;
  }
  return out;
}

}  // namespace is2::obs
