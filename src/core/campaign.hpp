// The Ross Sea November 2019 campaign: the paper's Table I — eight IS2/S2
// coincident pairs (< 2 h apart) with the S2 alignment shifts the authors
// applied. Each pair becomes a simulated scene: a surface model seeded per
// pair, an ATL03 granule at the IS2 time, and a Sentinel-2 scene rendered at
// the S2 time with the ice drifted by the pair's true drift (the negative of
// Table I's S2 shift). Shard writing splits granules into per-beam chunk
// files, the partition unit of the map-reduce scaling experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "atl03/granule.hpp"
#include "atl03/photon_sim.hpp"
#include "atl03/surface_model.hpp"
#include "core/config.hpp"
#include "geo/corrections.hpp"
#include "sentinel2/scene_sim.hpp"
#include "sentinel2/segmentation.hpp"

namespace is2::core {

/// One Table I row.
struct CoincidentPair {
  int index = 0;                  ///< 1-based row number
  std::string granule_id;         ///< ATL03-style id
  std::string is2_time_utc;       ///< human-readable acquisition times
  std::string s2_time_utc;
  double is2_epoch_s = 0.0;       ///< seconds since 2019-11-01 00:00 UTC
  double s2_epoch_s = 0.0;
  double dt_minutes = 0.0;        ///< Table I time difference
  geo::Xy s2_shift_applied;       ///< Table I "shift of S2 images" (to align)

  /// True feature displacement IS2 -> S2 (what the renderer applies and the
  /// drift estimator must recover): the opposite of the alignment shift.
  geo::Xy true_drift() const { return {-s2_shift_applied.x, -s2_shift_applied.y}; }
};

/// The eight Table I pairs.
std::vector<CoincidentPair> ross_sea_november_2019();

/// Fully generated data for one pair.
struct PairDataset {
  CoincidentPair pair;
  atl03::Granule granule;
  s2::ClassRaster s2_labels;  ///< color-based segmentation output
  s2::ClassRaster s2_truth;   ///< scene truth at S2 time (evaluation only)
  double segmentation_accuracy = 0.0;
  std::size_t cloud_pixels = 0;
};

class Campaign {
 public:
  explicit Campaign(const PipelineConfig& config);

  const PipelineConfig& config() const { return config_; }
  const geo::GeoCorrections& corrections() const { return corrections_; }
  const std::vector<CoincidentPair>& pairs() const { return pairs_; }

  /// Reference ground track of pair k (tracks are spread across the region).
  geo::GroundTrack track(std::size_t k) const;
  /// The pair's surface model (deterministic per campaign seed and k).
  atl03::SurfaceModel surface(std::size_t k) const;

  /// Generate granule + rendered/segmented S2 scene for pair k. Heavy; the
  /// multispectral image is dropped after segmentation to bound memory.
  PairDataset generate(std::size_t k) const;

 private:
  PipelineConfig config_;
  geo::GeoCorrections corrections_;
  std::vector<CoincidentPair> pairs_;
};

/// Shard files for the map-reduce jobs: one file per (pair, beam, chunk).
struct ShardSet {
  std::vector<std::string> files;
  std::vector<std::size_t> pair_of_file;  ///< campaign pair index per file
};

/// Split a granule into per-beam along-track chunks and write each as an
/// h5lite file under `dir`. Appends to `shards`.
void write_shards(const atl03::Granule& granule, std::size_t pair_index,
                  std::size_t chunks_per_beam, const std::string& dir, ShardSet& shards);

}  // namespace is2::core
