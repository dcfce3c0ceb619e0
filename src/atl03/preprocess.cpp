#include "atl03/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "geo/polar_stereo.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace is2::atl03 {

namespace {

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

  // Confidence filter + projection + geophysical correction. A photon whose
  // along-track distance or time is not finite cannot be placed on the
  // track (nor sorted, binned or given a background rate), so it goes too.
  const auto n = beam.size();
  std::vector<std::size_t> keep;
  keep.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (beam.signal_conf[i] >= static_cast<std::int8_t>(config.min_conf) &&
        std::isfinite(beam.along_track[i]) && std::isfinite(beam.delta_time[i]))
      keep.push_back(i);

  // Sort by along-track distance (footprint jitter makes raw order ragged).
  std::sort(keep.begin(), keep.end(),
            [&](std::size_t a, std::size_t b) { return beam.along_track[a] < beam.along_track[b]; });

  out.s.reserve(keep.size());
  for (std::size_t i : keep) {
    const geo::Xy p = proj.forward({beam.lon[i], beam.lat[i]});
    double h = beam.h[i];
    if (config.apply_geo_correction)
      h -= corrections.total(granule.epoch_time + beam.delta_time[i], p.x, p.y);
    out.s.push_back(beam.along_track[i]);
    out.h.push_back(h);
    out.t.push_back(beam.delta_time[i]);
    out.x.push_back(p.x);
    out.y.push_back(p.y);
    out.bckgrd_rate.push_back(
        interp_background(beam.bckgrd_delta_time, beam.bckgrd_rate, beam.delta_time[i]));
    if (!beam.truth_class.empty()) out.truth_class.push_back(beam.truth_class[i]);
  }

  if (out.s.empty()) return out;

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
  for (std::size_t i = 0; i < out.s.size();) {
    const std::size_t bin = bin_of(i);
    std::size_t j = i + 1;
    while (j < out.s.size() && bin_of(j) == bin) ++j;
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

  PreprocessedBeam filtered;
  filtered.beam = out.beam;
  filtered.track_origin = out.track_origin;
  filtered.track_heading = out.track_heading;
  filtered.epoch_time = out.epoch_time;
  for (std::size_t i = 0, r = 0; i < out.s.size(); ++i) {
    if (i == run_end[r]) ++r;
    if (std::abs(out.h[i] - run_median[r]) > config.outlier_threshold_m) continue;
    filtered.s.push_back(out.s[i]);
    filtered.h.push_back(out.h[i]);
    filtered.t.push_back(out.t[i]);
    filtered.x.push_back(out.x[i]);
    filtered.y.push_back(out.y[i]);
    filtered.bckgrd_rate.push_back(out.bckgrd_rate[i]);
    if (!out.truth_class.empty()) filtered.truth_class.push_back(out.truth_class[i]);
  }
  return filtered;
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
