#include "atl03/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "geo/polar_stereo.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace is2::atl03 {

namespace {

/// ATL03's geolocation segment [m]: the product ships its geophysical
/// corrections once per segment of this along-track length.
constexpr double kGeolocationSegmentM = 20.0;

/// Interpolate background-rate bins to an arbitrary time.
double interp_background(const std::vector<double>& bin_t, const std::vector<double>& bin_rate,
                         double t) {
  if (bin_t.empty()) return 0.0;
  if (t <= bin_t.front()) return bin_rate.front();
  if (t >= bin_t.back()) return bin_rate.back();
  const auto it = std::lower_bound(bin_t.begin(), bin_t.end(), t);
  const auto i = static_cast<std::size_t>(it - bin_t.begin());
  const double t0 = bin_t[i - 1], t1 = bin_t[i];
  const double w = (t - t0) / (t1 - t0);
  return bin_rate[i - 1] * (1.0 - w) + bin_rate[i] * w;
}

}  // namespace

void PreprocessConfig::validate() const {
  util::check_length(outlier_bin_m, "PreprocessConfig: outlier_bin_m");
  util::check_length(outlier_threshold_m, "PreprocessConfig: outlier_threshold_m",
                     /*zero_ok=*/true);
}

PreprocessedBeam preprocess_beam(const Granule& granule, const BeamData& beam,
                                 const geo::GeoCorrections& corrections,
                                 const PreprocessConfig& config) {
  config.validate();
  beam.check_consistent();
  const geo::PolarStereo proj = geo::PolarStereo::epsg3976();

  PreprocessedBeam out;
  out.beam = beam.beam;
  out.track_origin = granule.track_origin;
  out.track_heading = granule.track_heading;
  out.epoch_time = granule.epoch_time;

  // Confidence filter. A photon whose along-track distance, time or position
  // is not finite cannot be placed on the track (nor sorted, binned,
  // projected or given a background rate), so it goes too.
  const auto n = beam.size();
  std::vector<std::pair<double, std::size_t>> order;  // (along-track, photon)
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (beam.signal_conf[i] >= static_cast<std::int8_t>(config.min_conf) &&
        std::isfinite(beam.along_track[i]) && std::isfinite(beam.delta_time[i]) &&
        std::isfinite(beam.lat[i]) && std::isfinite(beam.lon[i]))
      order.emplace_back(beam.along_track[i], i);

  // Sort by along-track distance (footprint jitter makes raw order ragged).
  // The comparison reads the distance alone, so ties keep the order a sort
  // of photon indices by the same comparison leaves them in.
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const bool has_truth = !beam.truth_class.empty();
  const auto resize_columns = [&](std::size_t size) {
    for (auto* column : {&out.s, &out.h, &out.t, &out.x, &out.y, &out.bckgrd_rate})
      column->resize(size);
    out.truth_class.resize(has_truth ? size : 0);
  };
  const std::size_t count = order.size();
  resize_columns(count);

  // Heights are corrected one geolocation segment at a time: the correction
  // is evaluated at the segment's first and last photon and interpolated
  // linearly in along-track distance between them. End photons get the
  // exact value, and the interpolation never reaches past the segment.
  const auto correct_segment = [&](std::size_t first, std::size_t last) {
    const auto correction = [&](std::size_t k) {
      return corrections.total(granule.epoch_time + out.t[k], out.x[k], out.y[k]);
    };
    const double c_first = correction(first);
    out.h[first] -= c_first;
    if (last == first) return;
    const double c_last = correction(last);
    const double span = out.s[last] - out.s[first];  // 0 when all photons tie
    for (std::size_t k = first + 1; k < last; ++k) {
      const double w = span > 0.0 ? (out.s[k] - out.s[first]) / span : 0.0;
      out.h[k] -= c_first + (c_last - c_first) * w;
    }
    out.h[last] -= c_last;
  };

  // Projection, background rate and the other columns in one pass, one
  // geolocation segment at a time. The segment's first and last photon are
  // projected by forward(), the photons between them by the expansion about
  // the first (within 3e-9 m of forward()). The corrections, evaluated at
  // the end photons, so see forward()'s positions, and no height depends on
  // the expansion. A segment is corrected as soon as its last photon is in.
  const auto segment_of = [&](std::size_t k) {
    return std::floor(order[k].first / kGeolocationSegmentM);
  };
  std::optional<geo::PolarStereo::Local> local;  // about the segment's first photon
  std::size_t segment_first = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = order[k].second;
    const geo::LonLat ll{beam.lon[i], beam.lat[i]};
    const bool last = k + 1 == count || segment_of(k + 1) != segment_of(k);
    if (k == segment_first && !last) local = proj.local(ll);
    const geo::Xy p = k == segment_first || last ? proj.forward(ll) : local->forward(ll);
    out.s[k] = order[k].first;
    out.h[k] = beam.h[i];
    out.t[k] = beam.delta_time[i];
    out.x[k] = p.x;
    out.y[k] = p.y;
    out.bckgrd_rate[k] =
        interp_background(beam.bckgrd_delta_time, beam.bckgrd_rate, beam.delta_time[i]);
    if (has_truth) out.truth_class[k] = beam.truth_class[i];
    if (!last) continue;
    if (config.apply_geo_correction) correct_segment(segment_first, k);
    segment_first = k + 1;
  }

  if (count == 0) return out;

  // Reject ineffective reference photons: compare each photon to the median
  // height of its along-track bin (binned median = robust local surface).
  // The photons are sorted, so each occupied bin is one contiguous run;
  // memory is per run, not per bin of the along-track span, which a gap
  // can make arbitrarily long.
  // A finite but absurd distance (1e300 m) would overflow the cast, so bin
  // numbers stop at 2^63: no real track comes near.
  const double s0 = out.s.front();
  const auto bin_of = [&](std::size_t i) {
    return static_cast<std::size_t>(std::min((out.s[i] - s0) / config.outlier_bin_m, 0x1p63));
  };
  std::vector<std::size_t> run_end;  // one past each run's last photon
  std::vector<double> run_median;
  for (std::size_t i = 0; i < count;) {
    const std::size_t bin = bin_of(i);
    std::size_t j = i + 1;
    while (j < count && bin_of(j) == bin) ++j;
    run_end.push_back(j);
    run_median.push_back(util::median(std::span<const double>(out.h).subspan(i, j - i)));
    i = j;
  }
  // A NaN median (NaN heights) takes the last non-NaN median to its left,
  // else the first one to its right. Empty bins carry no median, so this is
  // the nearest-neighbour fill over bins.
  const auto first_valid = std::find_if(run_median.begin(), run_median.end(),
                                        [](double m) { return !std::isnan(m); });
  if (first_valid != run_median.end()) {
    double carry = *first_valid;
    for (double& m : run_median) {
      if (std::isnan(m)) m = carry;
      carry = m;
    }
  }

  // Compact the kept photons to the front of every column.
  std::size_t kept = 0;
  for (std::size_t i = 0, r = 0; i < count; ++i) {
    if (i == run_end[r]) ++r;
    if (std::abs(out.h[i] - run_median[r]) > config.outlier_threshold_m) continue;
    out.s[kept] = out.s[i];
    out.h[kept] = out.h[i];
    out.t[kept] = out.t[i];
    out.x[kept] = out.x[i];
    out.y[kept] = out.y[i];
    out.bckgrd_rate[kept] = out.bckgrd_rate[i];
    if (has_truth) out.truth_class[kept] = out.truth_class[i];
    ++kept;
  }
  resize_columns(kept);
  return out;
}

std::vector<PreprocessedBeam> preprocess_strong_beams(const Granule& granule,
                                                      const geo::GeoCorrections& corrections,
                                                      const PreprocessConfig& config) {
  std::vector<PreprocessedBeam> out;
  for (const auto& b : granule.beams)
    if (is_strong(b.beam)) out.push_back(preprocess_beam(granule, b, corrections, config));
  return out;
}

}  // namespace is2::atl03
