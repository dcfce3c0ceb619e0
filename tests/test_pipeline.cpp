// End-to-end integration tests on a tiny campaign: Table I metadata, scene
// generation, auto-labeling quality, training-data assembly, model training
// round trip, staged map-reduce jobs (incl. topology invariance) and
// determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "h5lite/granule_io.hpp"
#include "label/drift.hpp"
#include "pipeline/classifier.hpp"

namespace {

using namespace is2;
using atl03::SurfaceClass;

TEST(Campaign, TableOneMetadata) {
  const auto pairs = core::ross_sea_november_2019();
  ASSERT_EQ(pairs.size(), 8u);
  EXPECT_EQ(pairs[1].granule_id, "ATL03_20191104195311_05940510");
  EXPECT_EQ(pairs[7].granule_id, "ATL03_20191126182014_09290510");
  EXPECT_NEAR(pairs[0].dt_minutes, 9.55, 1e-9);
  EXPECT_NEAR(pairs[4].dt_minutes, 47.57, 1e-9);
  // All within the paper's < 2h window.
  for (const auto& p : pairs) {
    EXPECT_LT(p.dt_minutes, 120.0);
    EXPECT_NEAR(std::abs(p.s2_epoch_s - p.is2_epoch_s) / 60.0, p.dt_minutes, 1.0);
  }
  // Table I shift strings should render back to the paper's notation.
  EXPECT_EQ(label::describe_shift(pairs[0].s2_shift_applied), "550 m / NW");
  EXPECT_EQ(label::describe_shift(pairs[1].s2_shift_applied), "0 m");
  EXPECT_EQ(label::describe_shift(pairs[6].s2_shift_applied), "150 m / E");
  EXPECT_EQ(label::describe_shift(pairs[7].s2_shift_applied), "350 m / SW");
}

class TinyCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    pair_ = new core::PairDataset(campaign_->generate(1));  // pair 2: zero drift
  }
  static void TearDownTestSuite() {
    delete pair_;
    delete campaign_;
    delete config_;
    pair_ = nullptr;
    campaign_ = nullptr;
    config_ = nullptr;
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static core::PairDataset* pair_;
};

core::PipelineConfig* TinyCampaign::config_ = nullptr;
core::Campaign* TinyCampaign::campaign_ = nullptr;
core::PairDataset* TinyCampaign::pair_ = nullptr;

TEST_F(TinyCampaign, SceneGenerationSane) {
  EXPECT_GT(pair_->granule.total_photons(), 10'000u);
  EXPECT_EQ(pair_->granule.beams.size(), 3u);
  EXPECT_GT(pair_->segmentation_accuracy, 0.7);
  const auto frac = pair_->s2_labels.class_fractions();
  EXPECT_GT(frac[0], 0.3);  // thick ice majority on the usable raster
}

TEST_F(TinyCampaign, AutoLabelingBeatsNoise) {
  const auto labeled = core::label_pair(*pair_, campaign_->corrections(), *config_);
  ASSERT_EQ(labeled.labeled.size(), 3u);
  for (const auto& lb : labeled.labeled) {
    EXPECT_GT(lb.segments.size(), 1'000u);
    EXPECT_GT(lb.label_accuracy(), 0.80) << "beam label accuracy too low";
  }
}

TEST_F(TinyCampaign, DriftEstimationRecoversInjectedDrift) {
  // Pair 0 has a 550 m NW shift in Table I; regenerate it and estimate.
  const auto drifted = campaign_->generate(0);
  const auto labeled_est =
      core::label_pair(drifted, campaign_->corrections(), *config_, /*estimate=*/true);
  const auto labeled_true = core::label_pair(drifted, campaign_->corrections(), *config_);
  // Estimated-drift labeling should be close to true-drift labeling quality.
  double acc_est = 0.0, acc_true = 0.0;
  for (std::size_t b = 0; b < 3; ++b) {
    acc_est += labeled_est.labeled[b].label_accuracy();
    acc_true += labeled_true.labeled[b].label_accuracy();
  }
  EXPECT_GT(acc_est / 3.0, acc_true / 3.0 - 0.08);
}

TEST_F(TinyCampaign, TrainingDataAssemblyShapes) {
  const auto labeled = core::label_pair(*pair_, campaign_->corrections(), *config_);
  const auto data = core::assemble_training_data({labeled}, *config_);
  EXPECT_GT(data.train.size(), 1'000u);
  EXPECT_NEAR(static_cast<double>(data.train.size()) /
                  static_cast<double>(data.train.size() + data.test.size()),
              0.8, 0.01);
  EXPECT_EQ(data.train.x.t, config_->sequence_window);
  EXPECT_EQ(data.train.x.d, static_cast<std::size_t>(resample::FeatureRow::kDim));
  // Class imbalance: thick ice dominates.
  EXPECT_GT(data.class_counts[0], data.class_counts[1]);
  EXPECT_GT(data.class_counts[0], data.class_counts[2]);
}

TEST_F(TinyCampaign, TrainClassifyRoundTrip) {
  const auto labeled = core::label_pair(*pair_, campaign_->corrections(), *config_);
  const auto data = core::assemble_training_data({labeled}, *config_);

  util::Rng rng(1);
  nn::Sequential model = nn::make_mlp_model(config_->sequence_window, 6, rng);
  nn::Adam adam(0.003);
  nn::FocalLoss loss(2.0, nn::FocalLoss::balanced_alpha(data.train.y));
  nn::FitConfig fit;
  fit.epochs = 6;
  model.fit(data.train, loss, adam, fit);
  const auto metrics = model.evaluate(data.test);
  EXPECT_GT(metrics.accuracy, 0.85);

  // classify_windows end-to-end on one beam.
  const auto labels = pipeline::classify_windows(model, data.scaler, labeled.labeled[0].features,
                                                 config_->sequence_window);
  ASSERT_EQ(labels.size(), labeled.labeled[0].segments.size());
  std::size_t agree = 0, known = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labeled.labeled[0].segments[i].truth == SurfaceClass::Unknown) continue;
    ++known;
    if (labels[i] == labeled.labeled[0].segments[i].truth) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(known), 0.8);
}

TEST_F(TinyCampaign, ShardsRoundTripAndJobsAgreeAcrossTopologies) {
  const auto dir = std::filesystem::temp_directory_path() / "is2_shards_test";
  std::filesystem::create_directories(dir);
  core::ShardSet shards;
  core::write_shards(pair_->granule, 0, config_->chunks_per_beam, dir.string(), shards);
  ASSERT_EQ(shards.files.size(), 3u * config_->chunks_per_beam);

  // Shard photons together must equal the granule's photons.
  std::size_t shard_photons = 0;
  for (const auto& f : shards.files) shard_photons += h5::load_granule(f).total_photons();
  EXPECT_EQ(shard_photons, pair_->granule.total_photons());

  const std::vector<s2::ClassRaster> rasters{pair_->s2_labels};
  const std::vector<geo::Xy> drifts{pair_->pair.true_drift()};

  mapred::Engine serial({1, 1});
  mapred::Engine parallel({2, 2});
  const auto a = core::run_autolabel_job(serial, shards, rasters, drifts,
                                         campaign_->corrections(), *config_);
  const auto b = core::run_autolabel_job(parallel, shards, rasters, drifts,
                                         campaign_->corrections(), *config_);
  EXPECT_GT(a.segments, 5'000u);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.labeled, b.labeled);
  EXPECT_NEAR(a.label_accuracy, b.label_accuracy, 1e-12);
  EXPECT_GT(a.label_accuracy, 0.8);

  const auto fa = core::run_freeboard_job(serial, shards, rasters, drifts,
                                          campaign_->corrections(), *config_);
  const auto fb = core::run_freeboard_job(parallel, shards, rasters, drifts,
                                          campaign_->corrections(), *config_);
  EXPECT_EQ(fa.points, fb.points);
  EXPECT_GT(fa.points, 1'000u);
  EXPECT_NEAR(fa.mean_freeboard, fb.mean_freeboard, 1e-9);
  EXPECT_GT(fa.mean_freeboard, 0.05);
  EXPECT_LT(fa.mean_freeboard, 0.8);

  std::filesystem::remove_all(dir);
}

TEST_F(TinyCampaign, GenerationIsDeterministic) {
  const auto again = campaign_->generate(1);
  EXPECT_EQ(again.granule.total_photons(), pair_->granule.total_photons());
  const auto& a = again.granule.beam(atl03::BeamId::Gt2r);
  const auto& b = pair_->granule.beam(atl03::BeamId::Gt2r);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 997) EXPECT_DOUBLE_EQ(a.h[i], b.h[i]);
  EXPECT_EQ(again.s2_labels.data(), pair_->s2_labels.data());
}

}  // namespace
