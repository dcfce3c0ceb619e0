#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "h5lite/granule_io.hpp"
#include "label/drift.hpp"
#include "pipeline/product_builder.hpp"
#include "util/rng.hpp"

namespace is2::core {

using atl03::SurfaceClass;

LabeledPair label_pair(const PairDataset& pair, const geo::GeoCorrections& corrections,
                       const PipelineConfig& config, bool estimate_drift_instead) {
  LabeledPair out;
  const pipeline::ProductBuilder builder(config, corrections);  // validates config
  out.beams = atl03::preprocess_strong_beams(pair.granule, corrections, config.preprocess);

  for (auto& beam : out.beams) {
    // Resample + FPB through the shared stage graph (preprocess is seeded).
    pipeline::Artifacts art = pipeline::Artifacts::from_preprocessed(beam);
    builder.run_until(art, pipeline::StageId::fpb);
    auto segments = art.take_segments();

    label::AutoLabelConfig al = config.autolabel;
    if (al.feature_gap_m < 0.0) al.feature_gap_m = config.segmenter.window_m * 1.5;
    al.seed = config.seed ^ util::hash64(static_cast<std::uint64_t>(beam.beam) + 11);
    if (estimate_drift_instead) {
      const auto baseline = resample::rolling_baseline(segments);
      const auto est = label::estimate_drift(pair.s2_labels, segments, baseline);
      al.overlay.shift = est.shift;
    } else {
      al.overlay.shift = pair.pair.true_drift();
    }
    out.labeled.push_back(label::auto_label(pair.s2_labels, std::move(segments), al));
  }
  return out;
}

TrainingData assemble_training_data(const std::vector<LabeledPair>& pairs,
                                    const PipelineConfig& config, double train_fraction,
                                    std::uint64_t seed) {
  // Flatten per-beam features/labels (windows never straddle beams).
  std::vector<std::vector<float>> feat;
  std::vector<std::vector<std::uint8_t>> labels;
  std::vector<resample::FeatureRow> all_rows;
  for (const auto& p : pairs) {
    for (const auto& lb : p.labeled) {
      std::vector<float> f;
      f.reserve(lb.features.size() * resample::FeatureRow::kDim);
      std::vector<std::uint8_t> y;
      y.reserve(lb.labels.size());
      for (std::size_t i = 0; i < lb.features.size(); ++i) {
        for (int d = 0; d < resample::FeatureRow::kDim; ++d) f.push_back(lb.features[i].v[d]);
        y.push_back(static_cast<std::uint8_t>(lb.labels[i]));
        all_rows.push_back(lb.features[i]);
      }
      feat.push_back(std::move(f));
      labels.push_back(std::move(y));
    }
  }

  TrainingData out;
  out.scaler = resample::FeatureScaler::fit(all_rows);
  for (auto& f : feat) {
    for (std::size_t i = 0; i < f.size(); i += resample::FeatureRow::kDim)
      for (int d = 0; d < resample::FeatureRow::kDim; ++d)
        f[i + d] = (f[i + d] - out.scaler.mean[d]) / out.scaler.std[d];
  }

  nn::WindowedData windows = nn::make_windows(feat, labels, resample::FeatureRow::kDim,
                                              config.sequence_window, /*keep_unknown=*/false);

  // Shuffle then split 80/20 (the paper's protocol).
  std::vector<std::size_t> order(windows.data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(seed);
  rng.shuffle(order);
  nn::Dataset shuffled = windows.data.subset(order);
  auto [train, test] = shuffled.split(train_fraction);
  out.train = std::move(train);
  out.test = std::move(test);
  for (auto y : out.train.y) ++out.class_counts[y];
  return out;
}

namespace {

/// Shared per-partition heavy path through the stage graph:
/// preprocess -> 2m resample -> FPB on a single-beam shard.
std::vector<resample::Segment> partition_segments(const atl03::Granule& shard,
                                                  const pipeline::ProductBuilder& builder) {
  if (shard.beams.size() != 1)
    throw std::invalid_argument("partition_segments: shard must hold exactly one beam");
  pipeline::Artifacts art = pipeline::Artifacts::from_beam(shard, shard.beams[0]);
  builder.run_until(art, pipeline::StageId::fpb);
  return art.take_segments();
}

}  // namespace

AutoLabelJobStats run_autolabel_job(mapred::Engine& engine, const ShardSet& shards,
                                    const std::vector<s2::ClassRaster>& rasters,
                                    const std::vector<geo::Xy>& drifts,
                                    const geo::GeoCorrections& corrections,
                                    const PipelineConfig& config) {
  if (shards.files.size() != shards.pair_of_file.size())
    throw std::invalid_argument("run_autolabel_job: malformed shard set");
  const pipeline::ProductBuilder builder(config, corrections);  // validates config

  struct PartitionOut {
    std::size_t segments = 0;
    std::size_t labeled = 0;
    std::size_t correct = 0;
    std::size_t truth_known = 0;
  };

  auto result = mapred::run_map_reduce<atl03::Granule, PartitionOut>(
      engine, shards.files.size(),
      /*load=*/[&](std::size_t i) { return h5::load_granule(shards.files[i]); },
      /*map=*/[](std::vector<atl03::Granule>&) {},
      /*reduce=*/
      [&](atl03::Granule& shard, std::size_t i) {
        const std::size_t pair = shards.pair_of_file[i];
        auto segments = partition_segments(shard, builder);

        label::AutoLabelConfig al = config.autolabel;
        if (al.feature_gap_m < 0.0) al.feature_gap_m = config.segmenter.window_m * 1.5;
        al.seed = config.seed ^ util::hash64(i * 31 + 5);
        al.overlay.shift = drifts[pair];
        const label::LabeledBeam lb =
            label::auto_label(rasters[pair], std::move(segments), al);

        PartitionOut out;
        out.segments = lb.segments.size();
        for (std::size_t k = 0; k < lb.labels.size(); ++k) {
          if (lb.labels[k] == SurfaceClass::Unknown) continue;
          ++out.labeled;
          if (lb.segments[k].truth == SurfaceClass::Unknown) continue;
          ++out.truth_known;
          if (lb.labels[k] == lb.segments[k].truth) ++out.correct;
        }
        return out;
      });

  AutoLabelJobStats stats;
  stats.timing = result.timing;
  std::size_t correct = 0, known = 0;
  for (const auto& p : result.results) {
    stats.segments += p.segments;
    stats.labeled += p.labeled;
    correct += p.correct;
    known += p.truth_known;
  }
  stats.label_accuracy = known ? static_cast<double>(correct) / static_cast<double>(known) : 0.0;
  return stats;
}

FreeboardJobStats run_freeboard_job(mapred::Engine& engine, const ShardSet& shards,
                                    const std::vector<s2::ClassRaster>& rasters,
                                    const std::vector<geo::Xy>& drifts,
                                    const geo::GeoCorrections& corrections,
                                    const PipelineConfig& config) {
  if (shards.files.size() != shards.pair_of_file.size())
    throw std::invalid_argument("run_freeboard_job: malformed shard set");
  const pipeline::ProductBuilder builder(config, corrections);  // validates config

  struct PartitionOut {
    std::size_t points = 0;
    double fb_sum = 0.0;
    util::Histogram dist{-0.2, 1.2, 56};
  };

  auto result = mapred::run_map_reduce<atl03::Granule, PartitionOut>(
      engine, shards.files.size(),
      /*load=*/[&](std::size_t i) { return h5::load_granule(shards.files[i]); },
      /*map=*/[](std::vector<atl03::Granule>&) {},
      /*reduce=*/
      [&](atl03::Granule& shard, std::size_t i) {
        const std::size_t pair = shards.pair_of_file[i];
        auto segments = partition_segments(shard, builder);

        // Classification stage output: the labeled classes along the chunk
        // (the scaling experiment measures the freeboard computation, so the
        // classifier here is the fast overlay+rules path).
        label::AutoLabelConfig al = config.autolabel;
        if (al.feature_gap_m < 0.0) al.feature_gap_m = config.segmenter.window_m * 1.5;
        al.seed = config.seed ^ util::hash64(i * 67 + 9);
        al.overlay.shift = drifts[pair];
        label::LabeledBeam lb = label::auto_label(rasters[pair], std::move(segments), al);

        // Sea surface + freeboard through the stage graph, resuming from the
        // auto-label classes (no ClassifierBackend needed).
        pipeline::Artifacts tail =
            pipeline::Artifacts::resume(std::move(lb.segments), std::move(lb.labels));
        builder.build(tail, pipeline::ProductKind::freeboard, /*backend=*/nullptr,
                      seasurface::Method::NasaEquation);
        const freeboard::FreeboardProduct& product = tail.freeboard_out();

        PartitionOut out;
        out.points = product.points.size();
        for (const auto& p : product.points) {
          out.fb_sum += p.freeboard;
          out.dist.add(p.freeboard);
        }
        return out;
      });

  FreeboardJobStats stats;
  stats.timing = result.timing;
  double fb_sum = 0.0;
  for (const auto& p : result.results) {
    stats.points += p.points;
    fb_sum += p.fb_sum;
    stats.distribution.merge(p.dist);
  }
  stats.mean_freeboard = stats.points ? fb_sum / static_cast<double>(stats.points) : 0.0;
  return stats;
}

}  // namespace is2::core
