// End-to-end pipeline orchestration (paper Fig. 1): preprocessing ->
// 2m resampling -> auto-labeling -> model training -> inference -> local sea
// surface -> freeboard, plus the two staged map-reduce jobs behind the
// scaling experiments (Tables II and V).
//
// Since the `is2::pipeline` stage-graph redesign, everything here is a thin
// composition over `pipeline::ProductBuilder` — the per-stage wiring lives
// in exactly one place. `label_pair` and the jobs remain the stable batch
// entry points; per-beam classification is `pipeline::classify_windows` or a
// `pipeline::ClassifierBackend`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "freeboard/freeboard.hpp"
#include "label/autolabel.hpp"
#include "mapred/engine.hpp"
#include "nn/model.hpp"
#include "resample/fpb.hpp"
#include "seasurface/detector.hpp"

namespace is2::core {

/// Auto-labeled products for all strong beams of one coincident pair.
struct LabeledPair {
  std::vector<atl03::PreprocessedBeam> beams;
  std::vector<label::LabeledBeam> labeled;  ///< parallel to `beams`
};

/// Preprocess, resample (2m + first-photon-bias correction) and auto-label
/// one pair. The overlay shift is the pair's true drift, i.e. the Table I
/// alignment (pass `estimate_drift_instead = true` to use the estimator, as
/// the ablation bench does).
LabeledPair label_pair(const PairDataset& pair, const geo::GeoCorrections& corrections,
                       const PipelineConfig& config, bool estimate_drift_instead = false);

/// Train/test tensors assembled from labeled pairs: windows of
/// `config.sequence_window` segments, features standardized with a scaler
/// fit on the training split.
struct TrainingData {
  nn::Dataset train;
  nn::Dataset test;
  resample::FeatureScaler scaler;
  std::array<std::size_t, atl03::kNumClasses> class_counts{};
};

TrainingData assemble_training_data(const std::vector<LabeledPair>& pairs,
                                    const PipelineConfig& config, double train_fraction = 0.8,
                                    std::uint64_t seed = 4242);

// ---------------------------------------------------------------------------
// Staged map-reduce jobs (Tables II and V). Partitions are shard files; LOAD
// reads and decodes them, MAP is a no-op barrier (partitions keep shard
// order, so there is nothing to assign; its time stays a reported column),
// REDUCE runs the heavy per-partition computation.
// ---------------------------------------------------------------------------

struct AutoLabelJobStats {
  mapred::StageTiming timing;
  std::size_t segments = 0;
  std::size_t labeled = 0;       ///< segments with a usable (non-Unknown) label
  double label_accuracy = 0.0;   ///< photon-truth agreement, partition-weighted
};

AutoLabelJobStats run_autolabel_job(mapred::Engine& engine, const ShardSet& shards,
                                    const std::vector<s2::ClassRaster>& rasters,
                                    const std::vector<geo::Xy>& drifts,
                                    const geo::GeoCorrections& corrections,
                                    const PipelineConfig& config);

struct FreeboardJobStats {
  mapred::StageTiming timing;
  std::size_t points = 0;
  double mean_freeboard = 0.0;
  util::Histogram distribution{-0.2, 1.2, 56};
};

FreeboardJobStats run_freeboard_job(mapred::Engine& engine, const ShardSet& shards,
                                    const std::vector<s2::ClassRaster>& rasters,
                                    const std::vector<geo::Xy>& drifts,
                                    const geo::GeoCorrections& corrections,
                                    const PipelineConfig& config);

}  // namespace is2::core
