// Determinism of every parallel path. The batch jobs scale by tasks on a
// mapred::Engine, so they must give bit-identical results on a 1x1 and a
// 2x2 engine (partition results combine in partition order). The S2 render,
// k-means, segmentation, overlay and drift stages are serial and have no
// engine form; their pairs guard run-to-run determinism (per-row RNG forks,
// fixed summation orders).
//
// The dist tests extend the same policy to the rank-threaded training
// substrate: ring all-reduce results must not depend on rank arrival order,
// and a full 4-rank training run must be bit-reproducible.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "atl03/surface_model.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "dist/comm.hpp"
#include "dist/trainer.hpp"
#include "geo/polar_stereo.hpp"
#include "label/drift.hpp"
#include "label/overlay.hpp"
#include "mapred/engine.hpp"
#include "nn/model.hpp"
#include "sentinel2/kmeans.hpp"
#include "sentinel2/scene_sim.hpp"
#include "sentinel2/segmentation.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::SurfaceClass;

/// Striped raster + consistent segments (mirrors test_label's fixture).
s2::ClassRaster striped_raster(double stripe_m = 400.0, double pixel = 10.0) {
  s2::GeoTransform gt{0.0, 1'000.0, pixel};
  const auto cols = static_cast<std::size_t>(3.0 * stripe_m / pixel);
  s2::ClassRaster r(100, cols, gt);
  for (std::size_t row = 0; row < 100; ++row)
    for (std::size_t col = 0; col < cols; ++col) {
      const double x = gt.pixel_center(row, col).x;
      r.set(row, col,
            x < stripe_m         ? SurfaceClass::OpenWater
            : x < 2.0 * stripe_m ? SurfaceClass::ThinIce
                                 : SurfaceClass::ThickIce);
    }
  return r;
}

std::vector<resample::Segment> striped_segments(double stripe_m = 400.0, double shift_x = 0.0) {
  std::vector<resample::Segment> segs;
  for (double x = 1.0; x < 3.0 * stripe_m; x += 2.0) {
    resample::Segment s;
    s.s = x;
    s.x = x + shift_x;
    s.y = 500.0;
    s.h_mean = x < stripe_m ? 0.0 : x < 2 * stripe_m ? 0.06 : 0.45;
    s.h_std = 0.02;
    s.n_photons = 10;
    segs.push_back(s);
  }
  return segs;
}

struct SceneFixture {
  geo::GeoCorrections corrections{7};
  atl03::SurfaceConfig scfg;
  geo::GroundTrack track;
  atl03::SurfaceModel surface;

  SceneFixture()
      : track(geo::PolarStereo::epsg3976().forward({-160.0, -76.0}), 0.9),
        surface((scfg.length_m = 5'000.0, scfg), track, corrections, 77) {}
};

s2::Scene render_scene(const SceneFixture& fx, double cloud_cover) {
  s2::SceneConfig cfg;
  cfg.cross_track_halfwidth_m = 600.0;
  cfg.margin_m = 200.0;
  cfg.cloud_cover = cloud_cover;
  s2::SceneSimulator sim(cfg, 31);
  return sim.render(fx.surface, {120.0, -60.0}, 500.0);
}

TEST(ParallelDeterminism, OverlayLabels) {
  const auto raster = striped_raster();
  const auto segs = striped_segments();
  label::OverlayConfig cfg;
  cfg.vote_radius_px = 1;
  const auto a = label::overlay_labels(raster, segs, cfg);
  const auto b = label::overlay_labels(raster, segs, cfg);
  EXPECT_EQ(a, b);
}

TEST(ParallelDeterminism, DriftEstimate) {
  const auto raster = striped_raster();
  const auto segs = striped_segments(400.0, -150.0);
  std::vector<double> baseline(segs.size(), 0.0);
  label::DriftConfig cfg;
  const auto a = label::estimate_drift(raster, segs, baseline, cfg);
  const auto b = label::estimate_drift(raster, segs, baseline, cfg);
  EXPECT_EQ(a.shift.x, b.shift.x);
  EXPECT_EQ(a.shift.y, b.shift.y);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.score_unshifted, b.score_unshifted);
}

TEST(ParallelDeterminism, SceneRender) {
  SceneFixture fx;
  const auto a = render_scene(fx, 0.25);
  const auto b = render_scene(fx, 0.25);
  ASSERT_EQ(a.image.rows(), b.image.rows());
  ASSERT_EQ(a.image.cols(), b.image.cols());
  for (int band = 0; band < s2::kNumBands; ++band) {
    const float* ab = a.image.band_data(static_cast<s2::Band>(band));
    const float* bb = b.image.band_data(static_cast<s2::Band>(band));
    for (std::size_t i = 0; i < a.image.pixel_count(); ++i)
      ASSERT_EQ(ab[i], bb[i]) << "band " << band << " px " << i;
  }
  EXPECT_EQ(a.cloud_tau, b.cloud_tau);
  for (std::size_t r = 0; r < a.truth_class.rows(); ++r)
    for (std::size_t c = 0; c < a.truth_class.cols(); ++c)
      ASSERT_EQ(a.truth_class.at(r, c), b.truth_class.at(r, c));
}

TEST(ParallelDeterminism, KMeansInertiaAndLabels) {
  // The inertia is a float reduction; it sums in index order, so repeat
  // runs agree to the bit.
  util::Rng rng(5);
  std::vector<float> points(3 * 4000);
  for (auto& v : points) v = static_cast<float>(rng.uniform(0.0, 1.0));
  const auto a = s2::kmeans(points, 3, 5, util::Rng(11), 25);
  const auto b = s2::kmeans(points, 3, 5, util::Rng(11), 25);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.inertia, b.inertia);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(ParallelDeterminism, Segmentation) {
  SceneFixture fx;
  const auto scene = render_scene(fx, 0.3);
  s2::SegmentationConfig cfg;
  const auto a = s2::segment(scene.image, cfg);
  const auto b = s2::segment(scene.image, cfg);
  EXPECT_EQ(a.thick_cloud_pixels, b.thick_cloud_pixels);
  EXPECT_EQ(a.thin_cloud_corrected, b.thin_cloud_corrected);
  EXPECT_EQ(a.shadow_corrected, b.shadow_corrected);
  ASSERT_EQ(a.labels.rows(), b.labels.rows());
  ASSERT_EQ(a.labels.cols(), b.labels.cols());
  for (std::size_t r = 0; r < a.labels.rows(); ++r)
    for (std::size_t c = 0; c < a.labels.cols(); ++c)
      ASSERT_EQ(a.labels.at(r, c), b.labels.at(r, c));
}

/// One tiny-campaign pair written as shards: the input of both batch jobs.
class EngineShapeDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    const core::PairDataset pair = campaign_->generate(0);
    dir_ = new std::filesystem::path(std::filesystem::temp_directory_path() /
                                     "is2_engine_shape_test");
    std::filesystem::create_directories(*dir_);
    shards_ = new core::ShardSet;
    core::write_shards(pair.granule, 0, config_->chunks_per_beam, dir_->string(), *shards_);
    rasters_ = new std::vector<s2::ClassRaster>{pair.s2_labels};
    drifts_ = new std::vector<geo::Xy>{pair.pair.true_drift()};
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete drifts_;
    delete rasters_;
    delete shards_;
    delete dir_;
    delete campaign_;
    delete config_;
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static std::filesystem::path* dir_;
  static core::ShardSet* shards_;
  static std::vector<s2::ClassRaster>* rasters_;
  static std::vector<geo::Xy>* drifts_;
};

core::PipelineConfig* EngineShapeDeterminism::config_ = nullptr;
core::Campaign* EngineShapeDeterminism::campaign_ = nullptr;
std::filesystem::path* EngineShapeDeterminism::dir_ = nullptr;
core::ShardSet* EngineShapeDeterminism::shards_ = nullptr;
std::vector<s2::ClassRaster>* EngineShapeDeterminism::rasters_ = nullptr;
std::vector<geo::Xy>* EngineShapeDeterminism::drifts_ = nullptr;

TEST_F(EngineShapeDeterminism, AutoLabelJobBitIdenticalOnOneAndFourWorkers) {
  mapred::Engine serial({1, 1});
  mapred::Engine parallel({2, 2});
  const auto a = core::run_autolabel_job(serial, *shards_, *rasters_, *drifts_,
                                         campaign_->corrections(), *config_);
  const auto b = core::run_autolabel_job(parallel, *shards_, *rasters_, *drifts_,
                                         campaign_->corrections(), *config_);
  EXPECT_GT(a.segments, 0u);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.labeled, b.labeled);
  EXPECT_EQ(a.label_accuracy, b.label_accuracy);
}

TEST_F(EngineShapeDeterminism, FreeboardJobBitIdenticalOnOneAndFourWorkers) {
  mapred::Engine serial({1, 1});
  mapred::Engine parallel({2, 2});
  const auto a = core::run_freeboard_job(serial, *shards_, *rasters_, *drifts_,
                                         campaign_->corrections(), *config_);
  const auto b = core::run_freeboard_job(parallel, *shards_, *rasters_, *drifts_,
                                         campaign_->corrections(), *config_);
  EXPECT_GT(a.points, 0u);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.mean_freeboard, b.mean_freeboard);
  ASSERT_EQ(a.distribution.bins(), b.distribution.bins());
  for (std::size_t bin = 0; bin < a.distribution.bins(); ++bin)
    EXPECT_EQ(a.distribution.count(bin), b.distribution.count(bin)) << "bin " << bin;
  EXPECT_EQ(a.distribution.total(), b.distribution.total());
  EXPECT_EQ(a.distribution.nan_count(), b.distribution.nan_count());
}

TEST(ParallelDeterminism, AllreduceArrivalOrderIndependent) {
  // The ring parenthesizes each chunk's sum by topology, not by arrival:
  // staggering rank start times must not change a single bit, and all
  // ranks must end byte-identical.
  const int ranks = 4;
  const std::size_t len = 1'000;
  auto run = [&](bool staggered) {
    dist::Communicator comm(ranks);
    std::vector<std::vector<float>> bufs(ranks);
    for (int r = 0; r < ranks; ++r) {
      util::Rng rng(200 + static_cast<std::uint64_t>(r));
      bufs[static_cast<std::size_t>(r)].resize(len);
      for (auto& v : bufs[static_cast<std::size_t>(r)])
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    std::vector<std::thread> threads;
    for (int r = 0; r < ranks; ++r)
      threads.emplace_back([&, r] {
        if (staggered) std::this_thread::sleep_for(std::chrono::milliseconds(3 * r));
        comm.allreduce_sum(r, bufs[static_cast<std::size_t>(r)]);
      });
    for (auto& t : threads) t.join();
    return bufs;
  };
  const auto together = run(false);
  const auto staggered = run(true);
  for (int r = 0; r < ranks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    ASSERT_EQ(0, std::memcmp(together[ur].data(), staggered[ur].data(), len * sizeof(float)))
        << "rank " << r << " differs between simultaneous and staggered starts";
    ASSERT_EQ(0, std::memcmp(together[0].data(), together[ur].data(), len * sizeof(float)))
        << "rank " << r << " diverged from rank 0";
  }
}

TEST(ParallelDeterminism, DistTrainFourRanksBitIdentical) {
  // Two full 4-rank training runs must produce bit-identical final weights:
  // shared shuffle streams, fixed bucket boundaries and ring-ordered
  // reductions leave no scheduling-dependent float op anywhere.
  util::Rng drng(31);
  nn::Dataset train;
  train.x = nn::Tensor3(600, 5, 6);
  train.y.resize(600);
  for (std::size_t i = 0; i < 600; ++i) {
    const auto cls = static_cast<std::uint8_t>(drng.uniform_int(0, 2));
    for (std::size_t t = 0; t < 5; ++t) {
      float* row = train.x.at(i, t);
      for (int f = 0; f < 6; ++f) row[f] = static_cast<float>(drng.normal(cls * 1.0, 0.5));
    }
    train.y[i] = cls;
  }
  const auto test = train;  // evaluation set is irrelevant to the weights

  auto run = [&] {
    dist::TrainerConfig cfg;
    cfg.ranks = 4;
    cfg.epochs = 3;
    return dist::train_distributed(
        [] {
          util::Rng rng(33);
          return nn::make_mlp_model(5, 6, rng);
        },
        train, test, cfg);
  };
  auto a = run();
  auto b = run();
  auto pa = a.model.params();
  auto pb = b.model.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].value->size(), pb[i].value->size());
    ASSERT_EQ(0, std::memcmp(pa[i].value->data(), pb[i].value->data(),
                             pa[i].value->size() * sizeof(float)))
        << "parameter " << pa[i].name << " differs between identical runs";
  }
  EXPECT_EQ(a.test_metrics.accuracy, b.test_metrics.accuracy);
}

}  // namespace
