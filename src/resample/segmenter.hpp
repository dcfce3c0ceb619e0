// 2m resampling of ATL03 photon series (the paper's core data reduction:
// ATL07/ATL10 aggregate 150 photons over 10-200m; this pipeline aggregates
// whatever falls in a fixed 2m window to keep resolution).
//
// Each 2m window yields the statistics the paper lists (mean/median/std of
// height, photon counts, background rate) and the derived 6-feature vector
// used by the classifiers: elevation, elevation std, photon rate, photon
// rate change, background rate, background rate change.
#pragma once

#include <cstdint>
#include <vector>

#include "atl03/preprocess.hpp"
#include "atl03/types.hpp"

namespace is2::resample {

struct SegmenterConfig {
  double window_m = 2.0;        ///< resampling window (paper: 2 m)
  double shot_spacing_m = 0.7;  ///< to convert counts into per-shot rates
  std::size_t min_photons = 1;  ///< windows with fewer photons are dropped

  /// Throws std::invalid_argument unless window_m and shot_spacing_m are
  /// finite and positive.
  void validate() const;
};

/// One resampled along-track segment.
struct Segment {
  double s = 0.0;        ///< window center along-track [m]
  double t = 0.0;        ///< mean photon time [s since epoch]
  double x = 0.0;        ///< projected window center (EPSG:3976)
  double y = 0.0;
  double h_mean = 0.0;   ///< mean corrected height [m]
  double h_median = 0.0;
  double h_std = 0.0;
  double h_min = 0.0;
  std::uint32_t n_photons = 0;
  double photon_rate = 0.0;   ///< photons per shot in this window
  double bckgrd_rate = 0.0;   ///< mean background rate [Hz]
  atl03::SurfaceClass truth = atl03::SurfaceClass::Unknown;  ///< majority photon truth
};

/// The paper's six classification features for one segment.
struct FeatureRow {
  static constexpr int kDim = 6;
  float v[kDim] = {};
  // v[0] elevation (relative to rolling sea-level proxy)
  // v[1] height std dev
  // v[2] photon rate (high-confidence photons per shot)
  // v[3] photon rate change vs previous segment
  // v[4] background rate (MHz)
  // v[5] background rate change vs previous segment
};

/// Resample a preprocessed beam into 2m segments (windows in [0, s_max]).
/// Throws std::invalid_argument when `config` fails SegmenterConfig::validate.
std::vector<Segment> resample(const atl03::PreprocessedBeam& beam,
                              const SegmenterConfig& config = {});

/// Rolling low-percentile height baseline used as a sea-level proxy when
/// building the relative-elevation feature (and by the drift estimator).
/// Returns one baseline value per segment. Runs in O(n log w) via
/// util::RollingPercentile, bit-identical to rolling_baseline_reference.
std::vector<double> rolling_baseline(const std::vector<Segment>& segments,
                                     double window_m = 10'000.0, double percentile = 5.0);

/// Reference oracle for rolling_baseline: recomputes the percentile from a
/// freshly gathered window at every step (O(n·w) with a sort-based
/// percentile per window). Kept for property tests and benchmark guards;
/// production code should call rolling_baseline.
std::vector<double> rolling_baseline_reference(const std::vector<Segment>& segments,
                                               double window_m = 10'000.0,
                                               double percentile = 5.0);

/// Build feature rows; `baseline` must be rolling_baseline(segments) or
/// empty (absolute elevation is then used). The photon-rate and
/// background-rate deltas (v[3]/v[5]) difference against the previous
/// segment only when it is within `max_gap_m` along-track (default 1.5x the
/// nominal 2 m window, so any window dropped by min_photons breaks the
/// chain); across larger gaps the deltas are zeroed like at a track start.
/// Pass max_gap_m <= 0 to difference unconditionally (legacy behavior).
std::vector<FeatureRow> to_features(const std::vector<Segment>& segments,
                                    const std::vector<double>& baseline,
                                    double max_gap_m = 3.0);

/// Feature-wise standardization parameters (fit on training data only).
struct FeatureScaler {
  float mean[FeatureRow::kDim] = {};
  float std[FeatureRow::kDim] = {};

  static FeatureScaler fit(const std::vector<FeatureRow>& rows);
  void apply(std::vector<FeatureRow>& rows) const;
};

}  // namespace is2::resample
