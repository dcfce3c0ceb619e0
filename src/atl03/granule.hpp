// ATL03 granule data model: per-beam photon arrays (struct-of-arrays, the
// layout the real HDF5 product uses) plus acquisition metadata. Ground-truth
// per-photon classes from the simulator ride along in a `truth` group — the
// real product has no truth; it exists here for evaluation only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atl03/types.hpp"
#include "geo/track.hpp"

namespace is2::atl03 {

/// Photon arrays for one beam (mirrors /gtXX/heights in real ATL03).
struct BeamData {
  BeamId beam = BeamId::Gt1r;

  // Per photon:
  std::vector<double> delta_time;   ///< seconds since granule epoch
  std::vector<double> lat;          ///< degrees
  std::vector<double> lon;          ///< degrees
  std::vector<double> h;            ///< ellipsoidal height [m]
  std::vector<double> along_track;  ///< meters from track start (dist_ph_along)
  std::vector<std::int8_t> signal_conf;  ///< SignalConf for sea-ice surface type

  // Per 200-shot background bin (mirrors /gtXX/bckgrd_atlas):
  std::vector<double> bckgrd_delta_time;
  std::vector<double> bckgrd_rate;  ///< background photons / second

  // Simulator ground truth (evaluation only):
  std::vector<std::uint8_t> truth_class;  ///< SurfaceClass per photon

  std::size_t size() const { return h.size(); }
  /// All per-photon arrays share one length, the two background arrays
  /// share one, and the background bin times are finite and do not
  /// decrease; throws std::invalid_argument otherwise.
  void check_consistent() const;
};

/// One simulated ATL03 granule: a single reference ground track pass.
struct Granule {
  std::string id;           ///< e.g. "ATL03_20191104195311_05940510"
  double epoch_time = 0.0;  ///< campaign-relative acquisition time [s]
  geo::Xy track_origin;     ///< projected start of the reference track
  double track_heading = 0.0;
  double track_length = 0.0;
  std::uint64_t seed = 0;   ///< scene seed (reproducibility metadata)
  std::vector<BeamData> beams;

  const BeamData& beam(BeamId id) const;
  BeamData& beam(BeamId id);
  bool has_beam(BeamId id) const;

  /// Reconstruct the reference ground track geometry.
  geo::GroundTrack track() const { return geo::GroundTrack(track_origin, track_heading); }

  /// Total photon count across beams.
  std::size_t total_photons() const;
};

}  // namespace is2::atl03
