// ATL03 preprocessing (paper §III.A.2): select strong beams, keep photons at
// or above a signal-confidence threshold, project to EPSG:3976, apply the
// geophysical height correction, interpolate per-photon background rates from
// the bckgrd_atlas bins, and reject "ineffective reference photons" (outliers
// far from the local surface) with a rolling-median filter. One columnar pass
// fills every output column once and the filter compacts them in place. The
// correction is evaluated at ATL03's 20 m geolocation-segment rate, as the
// product ships it: exactly at each segment's first and last photon, linearly
// in along-track distance between them. The projection works on the same
// segments: PolarStereo::forward at each segment's first and last photon
// (where the correction reads x and y, so heights do not depend on the
// expansion), PolarStereo::Local's expansion about the first photon between
// them, within 3e-9 m of forward().
#pragma once

#include <cstdint>
#include <vector>

#include "atl03/granule.hpp"
#include "atl03/types.hpp"
#include "geo/corrections.hpp"
#include "geo/track.hpp"

namespace is2::atl03 {

struct PreprocessConfig {
  SignalConf min_conf = SignalConf::High;  ///< paper keeps high-confidence photons
  bool apply_geo_correction = true;
  double outlier_bin_m = 25.0;        ///< bin size for the local median surface
  double outlier_threshold_m = 5.0;   ///< reject photons this far from local median

  /// Throws std::invalid_argument unless outlier_bin_m is finite and
  /// positive and outlier_threshold_m finite and >= 0.
  void validate() const;
};

/// Clean per-beam photon series in along-track order, heights corrected.
struct PreprocessedBeam {
  BeamId beam = BeamId::Gt1r;
  geo::Xy track_origin;
  double track_heading = 0.0;
  double epoch_time = 0.0;

  std::vector<double> s;            ///< along-track [m], ascending
  std::vector<double> h;            ///< corrected height [m]
  std::vector<double> t;            ///< seconds since granule epoch
  std::vector<double> x;            ///< EPSG:3976 easting [m]
  std::vector<double> y;            ///< EPSG:3976 northing [m]
  std::vector<double> bckgrd_rate;  ///< interpolated background rate [Hz]
  std::vector<std::uint8_t> truth_class;  ///< evaluation only

  std::size_t size() const { return s.size(); }
  geo::GroundTrack track() const { return geo::GroundTrack(track_origin, track_heading); }
};

/// Preprocess a single beam. Throws std::invalid_argument when `config`
/// fails PreprocessConfig::validate or the beam's arrays are inconsistent.
PreprocessedBeam preprocess_beam(const Granule& granule, const BeamData& beam,
                                 const geo::GeoCorrections& corrections,
                                 const PreprocessConfig& config = {});

/// Preprocess all strong beams of a granule.
std::vector<PreprocessedBeam> preprocess_strong_beams(const Granule& granule,
                                                      const geo::GeoCorrections& corrections,
                                                      const PreprocessConfig& config = {});

}  // namespace is2::atl03
