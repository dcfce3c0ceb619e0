#include "resample/segmenter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rolling_percentile.hpp"
#include "util/stats.hpp"

namespace is2::resample {

using atl03::SurfaceClass;

void SegmenterConfig::validate() const {
  util::check_length(window_m, "SegmenterConfig: window_m");
  util::check_length(shot_spacing_m, "SegmenterConfig: shot_spacing_m");
}

std::vector<Segment> resample(const atl03::PreprocessedBeam& beam, const SegmenterConfig& cfg) {
  cfg.validate();
  std::vector<Segment> out;
  if (beam.s.empty()) return out;

  const double s0 = std::floor(beam.s.front() / cfg.window_m) * cfg.window_m;
  const double shots_per_window = cfg.window_m / cfg.shot_spacing_m;

  std::size_t i = 0;
  const std::size_t n = beam.s.size();
  std::vector<double> heights;
  while (i < n) {
    // The window number stays a double: photons as far out as ±1e300 m
    // survive preprocessing, beyond any integer type.
    const double w = std::trunc((beam.s[i] - s0) / cfg.window_m);
    const double w_begin = s0 + w * cfg.window_m;
    const double w_end = w_begin + cfg.window_m;

    // Gather the photon run of this window (input is along-track sorted).
    // Photon i always joins it, so every pass consumes at least one photon,
    // also where w_begin + window_m rounds back to w_begin (|s| > ~1e16 m).
    heights.clear();
    double t_sum = 0.0, x_sum = 0.0, y_sum = 0.0, bg_sum = 0.0;
    std::uint32_t counts[3] = {0, 0, 0};
    std::size_t j = i;
    for (; j < n && (j == i || beam.s[j] < w_end); ++j) {
      heights.push_back(beam.h[j]);
      t_sum += beam.t[j];
      x_sum += beam.x[j];
      y_sum += beam.y[j];
      bg_sum += beam.bckgrd_rate[j];
      if (!beam.truth_class.empty() && beam.truth_class[j] < 3) ++counts[beam.truth_class[j]];
    }
    const std::size_t m = j - i;
    i = j;
    if (m < cfg.min_photons) continue;

    Segment seg;
    seg.s = w_begin + cfg.window_m / 2.0;
    const auto dm = static_cast<double>(m);
    seg.t = t_sum / dm;
    seg.x = x_sum / dm;
    seg.y = y_sum / dm;
    seg.h_mean = util::mean(heights);
    seg.h_median = util::median(heights);
    seg.h_std = util::stddev(heights);
    seg.h_min = *std::min_element(heights.begin(), heights.end());
    seg.n_photons = static_cast<std::uint32_t>(m);
    seg.photon_rate = dm / shots_per_window;
    seg.bckgrd_rate = bg_sum / dm;
    if (!beam.truth_class.empty()) {
      std::uint32_t best = 0;
      for (std::uint32_t c = 1; c < 3; ++c)
        if (counts[c] > counts[best]) best = c;
      seg.truth = counts[best] > 0 ? static_cast<SurfaceClass>(best) : SurfaceClass::Unknown;
    }
    out.push_back(seg);
  }
  return out;
}

std::vector<double> rolling_baseline(const std::vector<Segment>& segments, double window_m,
                                     double percentile) {
  std::vector<double> baseline(segments.size(), 0.0);
  if (segments.empty()) return baseline;

  // Two-pointer sliding window over the along-track-sorted segments. The
  // window contents change by a handful of segments per step, so the
  // percentile is maintained incrementally by a streaming order-statistics
  // engine instead of re-sorted from scratch: O(n log w) overall, and
  // bit-identical to util::percentile on the same window (see
  // rolling_baseline_reference, the test oracle).
  util::RollingPercentile window(percentile);
  std::size_t lo = 0, hi = 0;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const double s = segments[k].s;
    while (hi < segments.size() && segments[hi].s <= s + window_m / 2.0) {
      window.insert(segments[hi].h_mean);
      ++hi;
    }
    while (lo < hi && segments[lo].s < s - window_m / 2.0) {
      window.erase(segments[lo].h_mean);
      ++lo;
    }
    baseline[k] = window.query();
  }
  return baseline;
}

std::vector<double> rolling_baseline_reference(const std::vector<Segment>& segments,
                                               double window_m, double percentile) {
  std::vector<double> baseline(segments.size(), 0.0);
  if (segments.empty()) return baseline;

  std::size_t lo = 0, hi = 0;
  std::vector<double> window;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const double s = segments[k].s;
    while (hi < segments.size() && segments[hi].s <= s + window_m / 2.0) ++hi;
    while (lo < hi && segments[lo].s < s - window_m / 2.0) ++lo;
    window.clear();
    window.reserve(hi - lo);
    for (std::size_t q = lo; q < hi; ++q) window.push_back(segments[q].h_mean);
    baseline[k] = util::percentile(window, percentile);
  }
  return baseline;
}

std::vector<FeatureRow> to_features(const std::vector<Segment>& segments,
                                    const std::vector<double>& baseline, double max_gap_m) {
  if (!baseline.empty() && baseline.size() != segments.size())
    throw std::invalid_argument("to_features: baseline size mismatch");
  std::vector<FeatureRow> rows(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    FeatureRow& r = rows[i];
    const double rel = baseline.empty() ? s.h_mean : s.h_mean - baseline[i];
    // A delta across an along-track gap (windows dropped by min_photons)
    // would difference physically non-adjacent surface: treat the segment
    // after a gap like a track start and zero its deltas.
    const bool adjacent = i > 0 && (max_gap_m <= 0.0 || s.s - segments[i - 1].s <= max_gap_m);
    r.v[0] = static_cast<float>(rel);
    r.v[1] = static_cast<float>(s.h_std);
    r.v[2] = static_cast<float>(s.photon_rate);
    r.v[3] = adjacent ? static_cast<float>(s.photon_rate - segments[i - 1].photon_rate) : 0.0f;
    r.v[4] = static_cast<float>(s.bckgrd_rate * 1e-6);  // Hz -> MHz
    r.v[5] = adjacent
                 ? static_cast<float>((s.bckgrd_rate - segments[i - 1].bckgrd_rate) * 1e-6)
                 : 0.0f;
  }
  return rows;
}

FeatureScaler FeatureScaler::fit(const std::vector<FeatureRow>& rows) {
  FeatureScaler sc;
  if (rows.empty()) {
    std::fill(std::begin(sc.std), std::end(sc.std), 1.0f);
    return sc;
  }
  for (int d = 0; d < FeatureRow::kDim; ++d) {
    double sum = 0.0;
    for (const auto& r : rows) sum += r.v[d];
    const double mean = sum / static_cast<double>(rows.size());
    double var = 0.0;
    for (const auto& r : rows) var += (r.v[d] - mean) * (r.v[d] - mean);
    var /= static_cast<double>(rows.size());
    sc.mean[d] = static_cast<float>(mean);
    sc.std[d] = static_cast<float>(std::sqrt(var) > 1e-8 ? std::sqrt(var) : 1.0);
  }
  return sc;
}

void FeatureScaler::apply(std::vector<FeatureRow>& rows) const {
  for (auto& r : rows)
    for (int d = 0; d < FeatureRow::kDim; ++d) r.v[d] = (r.v[d] - mean[d]) / std[d];
}

}  // namespace is2::resample
