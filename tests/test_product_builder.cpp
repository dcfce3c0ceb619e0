// Tests for the `is2::pipeline` stage-graph API: PipelineConfig::validate
// at the builder boundary, stage-by-stage equivalence with the hand-wired
// reference pipeline, prefix consistency between ProductKinds (a
// classification build's artifacts are bit-identical to the first stages of
// a freeboard build, for both classifier backends), resume-from-shallower
// correctness, classifier backend fingerprints, and per-stage
// instrumentation.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "baseline/decision_tree.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "pipeline/classifier.hpp"
#include "pipeline/product_builder.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using atl03::SurfaceClass;
using pipeline::Artifacts;
using pipeline::Backend;
using pipeline::ProductBuilder;
using pipeline::ProductKind;
using pipeline::StageId;

// ---------------------------------------------------------------------------
// PipelineConfig::validate
// ---------------------------------------------------------------------------

TEST(PipelineConfigValidate, AcceptsAllPresets) {
  EXPECT_NO_THROW(core::PipelineConfig::tiny().validate());
  EXPECT_NO_THROW(core::PipelineConfig::small().validate());
  EXPECT_NO_THROW(core::PipelineConfig::standard().validate());
}

TEST(PipelineConfigValidate, RejectsInconsistentSettings) {
  const core::PipelineConfig base = core::PipelineConfig::tiny();

  core::PipelineConfig even = base;
  even.sequence_window = 4;  // no center segment
  EXPECT_THROW(even.validate(), std::invalid_argument);

  core::PipelineConfig zero_window = base;
  zero_window.sequence_window = 0;
  EXPECT_THROW(zero_window.validate(), std::invalid_argument);

  core::PipelineConfig no_chunks = base;
  no_chunks.chunks_per_beam = 0;
  EXPECT_THROW(no_chunks.validate(), std::invalid_argument);

  core::PipelineConfig bad_surface = base;
  bad_surface.surface.length_m = base.track_length_m + 1000.0;  // disagrees
  EXPECT_THROW(bad_surface.validate(), std::invalid_argument);

  core::PipelineConfig matching_surface = base;
  matching_surface.surface.length_m = base.track_length_m;  // explicit but consistent
  EXPECT_NO_THROW(matching_surface.validate());

  core::PipelineConfig bad_segmenter = base;
  bad_segmenter.segmenter.window_m = 0.0;
  EXPECT_THROW(bad_segmenter.validate(), std::invalid_argument);

  core::PipelineConfig bad_track = base;
  bad_track.track_length_m = -5.0;
  EXPECT_THROW(bad_track.validate(), std::invalid_argument);

  core::PipelineConfig bad_fb = base;
  bad_fb.freeboard.max_freeboard_m = bad_fb.freeboard.min_freeboard_m - 1.0;
  EXPECT_THROW(bad_fb.validate(), std::invalid_argument);
}

TEST(PipelineConfigValidate, RejectsLengthsThatAreNotFiniteAndPositive) {
  // Every comparison with NaN is false, so a bare `x <= 0` check let NaN
  // through, and an infinite window passed it too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::function<double&(core::PipelineConfig&)> lengths[] = {
      [](core::PipelineConfig& c) -> double& { return c.track_length_m; },
      [](core::PipelineConfig& c) -> double& { return c.preprocess.outlier_bin_m; },
      [](core::PipelineConfig& c) -> double& { return c.segmenter.window_m; },
      [](core::PipelineConfig& c) -> double& { return c.segmenter.shot_spacing_m; },
      [](core::PipelineConfig& c) -> double& { return c.seasurface.window_m; },
      [](core::PipelineConfig& c) -> double& { return c.seasurface.stride_m; },
  };
  for (std::size_t f = 0; f < std::size(lengths); ++f)
    for (const double bad : {0.0, -25.0, nan, inf, -inf}) {
      SCOPED_TRACE(::testing::Message() << "length " << f << " = " << bad);
      core::PipelineConfig config = core::PipelineConfig::tiny();
      lengths[f](config) = bad;
      EXPECT_THROW(config.validate(), std::invalid_argument);
    }
}

TEST(PipelineConfigValidate, ThresholdAndDeadTimeMayBeZeroButMustBeFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::function<double&(core::PipelineConfig&)> fields[] = {
      [](core::PipelineConfig& c) -> double& { return c.preprocess.outlier_threshold_m; },
      [](core::PipelineConfig& c) -> double& { return c.instrument.dead_time_m; },
  };
  for (std::size_t f = 0; f < std::size(fields); ++f) {
    for (const double bad : {-1.0, nan, inf}) {
      SCOPED_TRACE(::testing::Message() << "field " << f << " = " << bad);
      core::PipelineConfig config = core::PipelineConfig::tiny();
      fields[f](config) = bad;
      EXPECT_THROW(config.validate(), std::invalid_argument);
    }
    core::PipelineConfig zero = core::PipelineConfig::tiny();
    fields[f](zero) = 0.0;
    EXPECT_NO_THROW(zero.validate());
  }
}

TEST(PipelineConfigValidate, BuilderConstructionValidates) {
  core::PipelineConfig bad = core::PipelineConfig::tiny();
  bad.sequence_window = 6;
  const geo::GeoCorrections corrections;
  EXPECT_THROW(ProductBuilder(bad, corrections), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stage graph on a tiny campaign beam
// ---------------------------------------------------------------------------

class BuilderCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    pair_ = new core::PairDataset(campaign_->generate(1));
    builder_ = new ProductBuilder(*config_, campaign_->corrections());

    // Reference feature set for scaler/tree fitting (via the builder's own
    // feature stage on gt1r).
    Artifacts art = gt1r_artifacts();
    builder_->run_until(art, StageId::features);
    scaler_ = new resample::FeatureScaler(resample::FeatureScaler::fit(art.features_out()));

    // A small fitted tree: trained on the feature rows against photon truth
    // (Unknown filtered) — enough signal to exercise the backend.
    std::vector<float> x;
    std::vector<std::uint8_t> y;
    const auto& segments = art.segments_out();
    const auto& features = art.features_out();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].truth == SurfaceClass::Unknown) continue;
      for (int d = 0; d < resample::FeatureRow::kDim; ++d) x.push_back(features[i].v[d]);
      y.push_back(static_cast<std::uint8_t>(segments[i].truth));
    }
    tree_ = new baseline::DecisionTree();
    tree_->fit(x, resample::FeatureRow::kDim, y, atl03::kNumClasses);
  }

  static void TearDownTestSuite() {
    delete tree_;
    delete scaler_;
    delete builder_;
    delete pair_;
    delete campaign_;
    delete config_;
    tree_ = nullptr;
    scaler_ = nullptr;
    builder_ = nullptr;
    pair_ = nullptr;
    campaign_ = nullptr;
    config_ = nullptr;
  }

  static Artifacts gt1r_artifacts() {
    return Artifacts::from_beam(pair_->granule, pair_->granule.beam(BeamId::Gt1r));
  }

  static pipeline::NnBackend make_nn_backend() {
    return pipeline::NnBackend(
        [] {
          util::Rng rng(99);
          return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim,
                                     rng);
        },
        *scaler_, config_->sequence_window);
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static core::PairDataset* pair_;
  static ProductBuilder* builder_;
  static resample::FeatureScaler* scaler_;
  static baseline::DecisionTree* tree_;
};

core::PipelineConfig* BuilderCampaign::config_ = nullptr;
core::Campaign* BuilderCampaign::campaign_ = nullptr;
core::PairDataset* BuilderCampaign::pair_ = nullptr;
ProductBuilder* BuilderCampaign::builder_ = nullptr;
resample::FeatureScaler* BuilderCampaign::scaler_ = nullptr;
baseline::DecisionTree* BuilderCampaign::tree_ = nullptr;

void expect_segments_bit_identical(const std::vector<resample::Segment>& a,
                                   const std::vector<resample::Segment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].s, b[i].s);
    EXPECT_EQ(a[i].h_mean, b[i].h_mean);
    EXPECT_EQ(a[i].h_std, b[i].h_std);
    EXPECT_EQ(a[i].h_min, b[i].h_min);
    EXPECT_EQ(a[i].n_photons, b[i].n_photons);
    EXPECT_EQ(a[i].photon_rate, b[i].photon_rate);
    EXPECT_EQ(a[i].bckgrd_rate, b[i].bckgrd_rate);
  }
}

TEST_F(BuilderCampaign, StagesMatchHandWiredReference) {
  // The builder's prefix must reproduce the hand-wired pipeline bit for bit.
  Artifacts art = gt1r_artifacts();
  pipeline::StageTrace trace;
  builder_->run_until(art, StageId::features, &trace);

  const auto pre = atl03::preprocess_beam(pair_->granule, pair_->granule.beam(BeamId::Gt1r),
                                          campaign_->corrections(), config_->preprocess);
  auto segments = resample::resample(pre, config_->segmenter);
  const resample::FirstPhotonBiasCorrector fpb(config_->instrument.dead_time_m,
                                               config_->instrument.strong_channels);
  fpb.apply(segments);
  const auto baseline_ref = resample::rolling_baseline(segments);
  const auto features = resample::to_features(segments, baseline_ref,
                                              config_->segmenter.window_m * 1.5);

  expect_segments_bit_identical(art.segments_out(), segments);
  ASSERT_EQ(art.features_out().size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i)
    for (int d = 0; d < resample::FeatureRow::kDim; ++d)
      EXPECT_EQ(art.features_out()[i].v[d], features[i].v[d]);

  // Every prefix stage ran exactly once and was traced.
  for (const StageId id :
       {StageId::preprocess, StageId::resample, StageId::fpb, StageId::features})
    EXPECT_TRUE(trace.did(id)) << pipeline::stage_name(id);
  EXPECT_FALSE(trace.did(StageId::classify));

  // Accessors for stages that have not run fail loudly.
  EXPECT_THROW(art.classes_out(), std::logic_error);
  EXPECT_THROW(art.sea_surface_out(), std::logic_error);
  EXPECT_THROW(art.freeboard_out(), std::logic_error);
}

TEST_F(BuilderCampaign, ClassificationIsBitIdenticalPrefixOfFreeboardNnBackend) {
  // ProductKinds are strict prefixes: the classification-kind build's
  // artifacts must equal the first stages of the freeboard-kind build.
  pipeline::NnBackend backend = make_nn_backend();

  Artifacts cls = gt1r_artifacts();
  builder_->build(cls, ProductKind::classification, &backend, seasurface::Method::NasaEquation);
  EXPECT_FALSE(cls.done(StageId::seasurface));
  EXPECT_THROW(cls.freeboard_out(), std::logic_error);

  Artifacts fb = gt1r_artifacts();
  builder_->build(fb, ProductKind::freeboard, &backend, seasurface::Method::NasaEquation);

  expect_segments_bit_identical(cls.segments_out(), fb.segments_out());
  EXPECT_EQ(cls.classes_out(), fb.classes_out());
  EXPECT_GT(fb.freeboard_out().points.size(), 0u);
}

TEST_F(BuilderCampaign, ClassificationIsBitIdenticalPrefixOfFreeboardTreeBackend) {
  pipeline::DecisionTreeBackend backend(*tree_);

  Artifacts cls = gt1r_artifacts();
  builder_->build(cls, ProductKind::classification, &backend, seasurface::Method::NasaEquation);

  Artifacts fb = gt1r_artifacts();
  builder_->build(fb, ProductKind::freeboard, &backend, seasurface::Method::NasaEquation);

  expect_segments_bit_identical(cls.segments_out(), fb.segments_out());
  EXPECT_EQ(cls.classes_out(), fb.classes_out());

  // And the two backends really are different classifiers on this beam.
  pipeline::NnBackend nn_backend = make_nn_backend();
  Artifacts nn_cls = gt1r_artifacts();
  builder_->build(nn_cls, ProductKind::classification, &nn_backend,
                  seasurface::Method::NasaEquation);
  EXPECT_NE(nn_cls.classes_out(), cls.classes_out());
}

TEST_F(BuilderCampaign, ResumeFromClassificationMatchesFullBuild) {
  // Seeding a freeboard build from a classification product's artifacts
  // must reproduce the full build bit for bit while skipping the expensive
  // prefix (no preprocess/resample/features/classify in the trace).
  pipeline::NnBackend backend = make_nn_backend();

  Artifacts full = gt1r_artifacts();
  builder_->build(full, ProductKind::freeboard, &backend, seasurface::Method::NasaEquation);

  Artifacts cls = gt1r_artifacts();
  builder_->build(cls, ProductKind::classification, &backend, seasurface::Method::NasaEquation);

  Artifacts resumed = Artifacts::resume(cls.segments, cls.classes);
  pipeline::StageTrace trace;
  builder_->build(resumed, ProductKind::freeboard, /*backend=*/nullptr,
                  seasurface::Method::NasaEquation, &trace);

  for (const StageId id : {StageId::preprocess, StageId::resample, StageId::fpb,
                           StageId::features, StageId::classify})
    EXPECT_FALSE(trace.did(id)) << pipeline::stage_name(id);
  EXPECT_TRUE(trace.did(StageId::seasurface));
  EXPECT_TRUE(trace.did(StageId::freeboard));

  ASSERT_EQ(resumed.freeboard_out().points.size(), full.freeboard_out().points.size());
  for (std::size_t i = 0; i < full.freeboard_out().points.size(); ++i) {
    EXPECT_EQ(resumed.freeboard_out().points[i].s, full.freeboard_out().points[i].s);
    EXPECT_EQ(resumed.freeboard_out().points[i].freeboard,
              full.freeboard_out().points[i].freeboard);
    EXPECT_EQ(resumed.freeboard_out().points[i].cls, full.freeboard_out().points[i].cls);
  }
  const auto& sa = resumed.sea_surface_out().points();
  const auto& sb = full.sea_surface_out().points();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].s, sb[i].s);
    EXPECT_EQ(sa[i].h_ref, sb[i].h_ref);
  }
}

TEST_F(BuilderCampaign, ClassifyWithoutBackendOnFreshArtifactsThrows) {
  Artifacts art = gt1r_artifacts();
  EXPECT_THROW(builder_->build(art, ProductKind::classification, /*backend=*/nullptr,
                               seasurface::Method::NasaEquation),
               std::logic_error);
}

TEST_F(BuilderCampaign, NnBackendMatchesClassifyWindows) {
  // The replica-pool backend and the single-model free function are the
  // same algorithm; predictions must agree exactly.
  pipeline::NnBackend backend = make_nn_backend();
  Artifacts art = gt1r_artifacts();
  builder_->run_until(art, StageId::features);

  util::Rng rng(99);
  nn::Sequential model =
      nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
  const auto reference = pipeline::classify_windows(model, *scaler_, art.features_out(),
                                                    config_->sequence_window);
  EXPECT_EQ(backend.classify(art.features_out()), reference);
  EXPECT_GT(backend.windows(), 0u);
  EXPECT_GT(backend.batches(), 0u);
}

TEST_F(BuilderCampaign, BackendFingerprintsDistinguishIdentity) {
  pipeline::NnBackend nn_a = make_nn_backend();
  pipeline::NnBackend nn_b = make_nn_backend();
  EXPECT_EQ(nn_a.fingerprint(), nn_b.fingerprint());  // same weights version

  pipeline::NnBackend nn_v1(
      [] {
        util::Rng rng(99);
        return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
      },
      *scaler_, config_->sequence_window, 1, 256, 0, /*weights_version=*/1);
  EXPECT_NE(nn_a.fingerprint(), nn_v1.fingerprint());

  // A refit scaler changes predictions, so it must change identity too —
  // even when the weights version is unchanged.
  resample::FeatureScaler refit = *scaler_;
  refit.mean[0] += 0.25f;
  pipeline::NnBackend nn_rescaled(
      [] {
        util::Rng rng(99);
        return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
      },
      refit, config_->sequence_window);
  EXPECT_NE(nn_a.fingerprint(), nn_rescaled.fingerprint());

  pipeline::DecisionTreeBackend tree_backend(*tree_);
  EXPECT_NE(tree_backend.fingerprint(), nn_a.fingerprint());
  EXPECT_EQ(tree_backend.fingerprint(), pipeline::DecisionTreeBackend(*tree_).fingerprint());

  // A structurally different tree fingerprints differently.
  baseline::DecisionTree other;
  std::vector<float> x;
  std::vector<std::uint8_t> y;
  util::Rng rng(3);
  for (int i = 0; i < 256; ++i) {
    for (int d = 0; d < resample::FeatureRow::kDim; ++d)
      x.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
    y.push_back(static_cast<std::uint8_t>(i % 3));
  }
  other.fit(x, resample::FeatureRow::kDim, y, atl03::kNumClasses);
  EXPECT_NE(pipeline::DecisionTreeBackend(other).fingerprint(), tree_backend.fingerprint());

  // product_fingerprint separates config, method and backend identity.
  const auto nasa = seasurface::Method::NasaEquation;
  const auto min_el = seasurface::Method::MinElevation;
  const auto fb = ProductKind::freeboard;
  EXPECT_NE(pipeline::product_fingerprint(*config_, nasa, nn_a, fb),
            pipeline::product_fingerprint(*config_, nasa, tree_backend, fb));
  EXPECT_NE(pipeline::product_fingerprint(*config_, nasa, nn_a, fb),
            pipeline::product_fingerprint(*config_, min_el, nn_a, fb));

  // Prefix scoping: the classification prefix reads neither the sea-surface
  // method nor the seasurface/freeboard config, so its fingerprint is
  // method-agnostic (one cached classification product serves every
  // method's resume) while deeper prefixes are method-sensitive.
  EXPECT_EQ(pipeline::prefix_fingerprint(*config_, nasa, ProductKind::classification),
            pipeline::prefix_fingerprint(*config_, min_el, ProductKind::classification));
  EXPECT_NE(pipeline::prefix_fingerprint(*config_, nasa, ProductKind::seasurface),
            pipeline::prefix_fingerprint(*config_, min_el, ProductKind::seasurface));
  core::PipelineConfig fb_cfg = *config_;
  fb_cfg.freeboard.max_freeboard_m += 1.0;
  EXPECT_EQ(pipeline::prefix_fingerprint(fb_cfg, nasa, ProductKind::seasurface),
            pipeline::prefix_fingerprint(*config_, nasa, ProductKind::seasurface));
  EXPECT_NE(pipeline::prefix_fingerprint(fb_cfg, nasa, fb),
            pipeline::prefix_fingerprint(*config_, nasa, fb));
  // The full-depth prefix is the config hash.
  EXPECT_EQ(pipeline::prefix_fingerprint(*config_, nasa, fb),
            pipeline::config_fingerprint(*config_, nasa));
}

TEST_F(BuilderCampaign, ResumeRejectsNonParallelClasses) {
  Artifacts art = gt1r_artifacts();
  builder_->run_until(art, StageId::features);
  auto segments = art.take_segments();
  std::vector<SurfaceClass> short_classes(segments.size() / 2, SurfaceClass::ThickIce);
  EXPECT_THROW(Artifacts::resume(segments, short_classes), std::invalid_argument);
  // Empty classes = "not classified yet" stays legal.
  EXPECT_NO_THROW(Artifacts::resume(segments));
}

}  // namespace
