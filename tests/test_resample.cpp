// 2m resampler, feature construction, scaler and first-photon-bias tests.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <latch>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "atl03/photon_sim.hpp"
#include "atl03/preprocess.hpp"
#include "geo/polar_stereo.hpp"
#include "resample/fpb.hpp"
#include "resample/segmenter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace is2;
using atl03::PreprocessedBeam;
using resample::FeatureRow;
using resample::Segment;
using resample::SegmenterConfig;

/// Hand-built beam: photons at known positions/heights.
PreprocessedBeam synthetic_beam() {
  PreprocessedBeam b;
  auto add = [&](double s, double h, double bg = 1e5) {
    b.s.push_back(s);
    b.h.push_back(h);
    b.t.push_back(s / 7000.0);
    b.x.push_back(s);
    b.y.push_back(0.0);
    b.bckgrd_rate.push_back(bg);
    b.truth_class.push_back(0);
  };
  // Window [0,2): three photons; window [2,4): one photon; [4,6): empty;
  // [6,8): two photons.
  add(0.5, 1.0);
  add(1.0, 2.0);
  add(1.5, 3.0);
  add(2.5, 5.0);
  add(6.5, 10.0);
  add(7.5, 12.0);
  return b;
}

TEST(Resample, WindowStatistics) {
  const auto segs = resample::resample(synthetic_beam());
  ASSERT_EQ(segs.size(), 3u);  // empty window dropped
  EXPECT_DOUBLE_EQ(segs[0].s, 1.0);
  EXPECT_DOUBLE_EQ(segs[0].h_mean, 2.0);
  EXPECT_DOUBLE_EQ(segs[0].h_median, 2.0);
  EXPECT_DOUBLE_EQ(segs[0].h_min, 1.0);
  EXPECT_EQ(segs[0].n_photons, 3u);
  EXPECT_NEAR(segs[0].h_std, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(segs[1].h_mean, 5.0);
  EXPECT_EQ(segs[1].n_photons, 1u);
  EXPECT_DOUBLE_EQ(segs[2].h_mean, 11.0);
  // photon rate = photons per shot = n / (2m / 0.7m).
  EXPECT_NEAR(segs[0].photon_rate, 3.0 / (2.0 / 0.7), 1e-12);
}

TEST(Resample, MinPhotonThreshold) {
  SegmenterConfig cfg;
  cfg.min_photons = 2;
  const auto segs = resample::resample(synthetic_beam(), cfg);
  ASSERT_EQ(segs.size(), 2u);  // single-photon window dropped too
  EXPECT_DOUBLE_EQ(segs[0].h_mean, 2.0);
  EXPECT_DOUBLE_EQ(segs[1].h_mean, 11.0);
}

TEST(Resample, EmptyBeam) {
  PreprocessedBeam empty;
  EXPECT_TRUE(resample::resample(empty).empty());
}

TEST(Resample, WindowAndShotSpacingMustBeFiniteAndPositive) {
  // A NaN or infinite window passed a bare `window_m <= 0` check; the
  // window number then came from a NaN cast to size_t and no photon ever
  // fell in the window, so resample never returned.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SegmenterConfig> cases;
  for (const double window : {nan, inf, -inf, 0.0, -1.0}) {
    SegmenterConfig c;
    c.window_m = window;
    cases.push_back(c);
  }
  for (const double spacing : {nan, 0.0}) {
    SegmenterConfig c;
    c.shot_spacing_m = spacing;
    cases.push_back(c);
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_THROW(cases[c].validate(), std::invalid_argument);
    EXPECT_THROW(resample::resample(synthetic_beam(), cases[c]), std::invalid_argument);
  }
  EXPECT_NO_THROW(SegmenterConfig{}.validate());
}

TEST(Resample, DistantPhotonsStillAdvanceTheWindowLoop) {
  // Beyond about 1e16 m, w_begin + window_m rounds back to w_begin, so no
  // photon fell before w_end and resample never returned; at ±1e300 m, which
  // preprocess_beam keeps, the window number also overflowed size_t.
  auto beam_at = [](std::initializer_list<double> positions) {
    PreprocessedBeam b;
    for (const double s : positions) {
      b.s.push_back(s);
      b.h.push_back(1.0);
      b.t.push_back(0.0);
      b.x.push_back(0.0);
      b.y.push_back(0.0);
      b.bckgrd_rate.push_back(1e5);
    }
    return b;
  };
  const auto far = resample::resample(beam_at({0.0, 1.0, 1e17}));
  ASSERT_EQ(far.size(), 2u);
  EXPECT_EQ(far[0].n_photons, 2u);
  EXPECT_DOUBLE_EQ(far[0].s, 1.0);
  EXPECT_EQ(far[1].n_photons, 1u);
  EXPECT_DOUBLE_EQ(far[1].s, 1e17);

  const auto extreme = resample::resample(beam_at({-1e300, 0.0, 1.0, 1e300}));
  ASSERT_EQ(extreme.size(), 3u);
  EXPECT_EQ(extreme[0].n_photons, 1u);
  EXPECT_EQ(extreme[1].n_photons, 2u);
  EXPECT_DOUBLE_EQ(extreme[1].s, 1.0);
  EXPECT_EQ(extreme[2].n_photons, 1u);
}

TEST(Resample, TruthMajorityVote) {
  PreprocessedBeam b = synthetic_beam();
  b.truth_class = {0, 1, 1, 2, 0, 0};
  const auto segs = resample::resample(b);
  EXPECT_EQ(segs[0].truth, atl03::SurfaceClass::ThinIce);   // 2 of 3
  EXPECT_EQ(segs[1].truth, atl03::SurfaceClass::OpenWater);
  EXPECT_EQ(segs[2].truth, atl03::SurfaceClass::ThickIce);
}

TEST(Resample, RollingBaselineTracksLowPercentile) {
  // Segments alternating between 0 (water) and 0.5 (ice): the 5th-percentile
  // baseline should hug the water level.
  std::vector<Segment> segs;
  for (int i = 0; i < 1000; ++i) {
    Segment s;
    s.s = i * 2.0;
    s.h_mean = (i % 10 == 0) ? 0.0 : 0.5;
    segs.push_back(s);
  }
  const auto baseline = resample::rolling_baseline(segs, 500.0, 5.0);
  ASSERT_EQ(baseline.size(), segs.size());
  for (std::size_t i = 50; i < 950; ++i) EXPECT_LT(baseline[i], 0.2) << i;
}

TEST(Resample, RollingBaselineMatchesReferenceOracle) {
  // Property test: the O(n log w) incremental baseline must be bit-identical
  // to the gather-and-sort reference over randomized tracks with duplicate
  // along-track coordinates, duplicate heights and large gaps.
  util::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Segment> segs;
    double s = 0.0;
    const int n = 1 + static_cast<int>(rng.next() % 300);
    for (int i = 0; i < n; ++i) {
      const double r = rng.uniform();
      if (r < 0.15) {
        // duplicate s: two windows can legitimately share a center
      } else if (r < 0.9) {
        s += 2.0;
      } else {
        s += 2.0 * static_cast<double>(1 + rng.next() % 50);  // min_photons gap
      }
      Segment seg;
      seg.s = s;
      seg.h_mean = (!segs.empty() && rng.uniform() < 0.1) ? segs.back().h_mean
                                                          : rng.normal(0.0, 1.0);
      segs.push_back(seg);
    }
    for (const double window_m : {6.0, 100.0, 1e9}) {
      for (const double p : {0.0, 5.0, 50.0, 100.0}) {
        const auto fast = resample::rolling_baseline(segs, window_m, p);
        const auto oracle = resample::rolling_baseline_reference(segs, window_m, p);
        ASSERT_EQ(fast.size(), oracle.size());
        for (std::size_t i = 0; i < fast.size(); ++i)
          ASSERT_EQ(fast[i], oracle[i])
              << "trial=" << trial << " w=" << window_m << " p=" << p << " i=" << i;
      }
    }
  }

  // Degenerate inputs: empty and size-1 tracks.
  EXPECT_TRUE(resample::rolling_baseline({}, 100.0, 5.0).empty());
  std::vector<Segment> one(1);
  one[0].s = 3.0;
  one[0].h_mean = -1.5;
  EXPECT_EQ(resample::rolling_baseline(one)[0], -1.5);
  EXPECT_EQ(resample::rolling_baseline_reference(one)[0], -1.5);
}

TEST(Resample, FeatureDeltasZeroedAcrossGaps) {
  // Windows dropped by min_photons leave along-track gaps; differencing
  // across them compares physically non-adjacent surface. Deltas reset to 0
  // there, like at a track start.
  std::vector<Segment> segs(4);
  const double s_values[] = {0.0, 2.0, 8.0, 10.0};  // 6 m gap after segment 1
  for (int i = 0; i < 4; ++i) {
    segs[i].s = s_values[i];
    segs[i].photon_rate = 1.0 + i;
    segs[i].bckgrd_rate = (1.0 + i) * 1e6;
  }
  const auto rows = resample::to_features(segs, {});  // default 3 m gap limit
  EXPECT_FLOAT_EQ(rows[1].v[3], 1.0f);  // 2 m spacing: normal delta
  EXPECT_FLOAT_EQ(rows[2].v[3], 0.0f);  // across the gap: zeroed
  EXPECT_FLOAT_EQ(rows[2].v[5], 0.0f);
  EXPECT_FLOAT_EQ(rows[3].v[3], 1.0f);  // chain restarts after the gap
  EXPECT_FLOAT_EQ(rows[3].v[5], 1.0f);  // MHz

  // max_gap_m <= 0 restores unconditional differencing (legacy behavior).
  const auto legacy = resample::to_features(segs, {}, 0.0);
  EXPECT_FLOAT_EQ(legacy[2].v[3], 1.0f);
  EXPECT_FLOAT_EQ(legacy[2].v[5], 1.0f);
}

TEST(Resample, FeatureDeltasAgainstPreviousSegment) {
  std::vector<Segment> segs(3);
  segs[0].photon_rate = 1.0;
  segs[0].bckgrd_rate = 1e6;
  segs[1].photon_rate = 3.0;
  segs[1].bckgrd_rate = 2e6;
  segs[2].photon_rate = 2.0;
  segs[2].bckgrd_rate = 1.5e6;
  for (int i = 0; i < 3; ++i) {
    segs[i].s = i * 2.0;
    segs[i].h_mean = 0.1 * i;
  }
  const auto rows = resample::to_features(segs, {});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_FLOAT_EQ(rows[0].v[3], 0.0f);
  EXPECT_FLOAT_EQ(rows[1].v[3], 2.0f);
  EXPECT_FLOAT_EQ(rows[2].v[3], -1.0f);
  EXPECT_FLOAT_EQ(rows[1].v[4], 2.0f);   // MHz
  EXPECT_FLOAT_EQ(rows[2].v[5], -0.5f);  // MHz delta
}

TEST(Resample, BaselineMakesElevationRelative) {
  std::vector<Segment> segs(2);
  segs[0].h_mean = -54.0;
  segs[1].h_mean = -53.7;
  segs[0].s = 0.0;
  segs[1].s = 2.0;
  const std::vector<double> baseline{-54.1, -54.1};
  const auto rows = resample::to_features(segs, baseline);
  EXPECT_NEAR(rows[0].v[0], 0.1f, 1e-6);
  EXPECT_NEAR(rows[1].v[0], 0.4f, 1e-6);
}

TEST(Resample, ScalerNormalizesToZeroMeanUnitVar) {
  util::Rng rng(3);
  std::vector<FeatureRow> rows(500);
  for (auto& r : rows)
    for (int d = 0; d < FeatureRow::kDim; ++d)
      r.v[d] = static_cast<float>(rng.normal(5.0 * d, d + 1.0));
  const auto scaler = resample::FeatureScaler::fit(rows);
  resample::FeatureScaler{scaler}.apply(rows);
  for (int d = 0; d < FeatureRow::kDim; ++d) {
    double mean = 0.0, var = 0.0;
    for (const auto& r : rows) mean += r.v[d];
    mean /= rows.size();
    for (const auto& r : rows) var += (r.v[d] - mean) * (r.v[d] - mean);
    var /= rows.size();
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Fpb, BiasPositiveAndIncreasingWithRate) {
  const resample::FirstPhotonBiasCorrector fpb(0.45, 16);
  const double b_low = fpb.bias(1.0, 0.1);
  const double b_high = fpb.bias(8.0, 0.1);
  EXPECT_GE(b_low, 0.0);
  EXPECT_GT(b_high, b_low);
  EXPECT_LT(b_high, 0.05);  // 16-channel detector keeps the bias small
}

TEST(Fpb, BiasIncreasesWithSurfaceSpread) {
  const resample::FirstPhotonBiasCorrector fpb(0.45, 16);
  EXPECT_GT(fpb.bias(5.0, 0.2), fpb.bias(5.0, 0.02));
}

TEST(Fpb, SingleChannelBiasMuchLarger) {
  const resample::FirstPhotonBiasCorrector multi(0.45, 16);
  const resample::FirstPhotonBiasCorrector single(0.45, 1);
  EXPECT_GT(single.bias(5.0, 0.1), 4.0 * multi.bias(5.0, 0.1));
}

TEST(Fpb, ApplyShiftsSegmentHeightsDown) {
  const resample::FirstPhotonBiasCorrector fpb(0.45, 16);
  std::vector<Segment> segs(1);
  segs[0].h_mean = 1.0;
  segs[0].h_median = 1.0;
  segs[0].photon_rate = 6.0;
  segs[0].h_std = 0.1;
  resample::FirstPhotonBiasCorrector{fpb}.apply(segs);
  EXPECT_LT(segs[0].h_mean, 1.0);
  EXPECT_DOUBLE_EQ(segs[0].h_mean, segs[0].h_median);
}

// bias() at four (rate, sigma) points — a grid corner, an interior cell, a
// point between cells and the clamped far corner — as hex doubles, recorded
// when every corrector still calibrated its own table. Equal bits show the
// shared table is the one a fresh calibration gives.
struct PinnedBias {
  int channels;
  std::uint64_t seed;
  std::array<double, 4> bias;
};
constexpr std::array<std::array<double, 2>, 4> kPinnedPoints{
    {{0.25, 0.01}, {3.7, 0.05}, {5.0, 0.2}, {10.0, 0.25}}};
constexpr PinnedBias kPinned[] = {
    {1, 0xF1B5,
     {0x1.445d81b26fcafp-11, 0x1.6b1d806f71104p-5, 0x1.2f88eeffdd35p-4, 0x1.4727a3f3e20b8p-4}},
    {2, 0xF1B5,
     {0x1.2fb07e96131cfp-12, 0x1.9efefabf2c332p-6, 0x1.0355a7e49bb46p-4, 0x1.0f0ac62347aadp-4}},
    {16, 0xF1B5,
     {-0x1.3e6163b085d36p-15, 0x1.c4b38c0e9819bp-9, 0x1.aa9ae359db5bap-7, 0x1.65a28bee2f9f2p-6}},
};
// Built by ConcurrentConstructionsGetPinnedValues alone, so its threads race
// over the key's first calibration.
constexpr PinnedBias kPinnedRaced{
    16, 0xF1B6,
    {-0x1.6e638f4d34abfp-17, 0x1.d425640f47e48p-9, 0x1.8a4b672259952p-7, 0x1.6c7514e6038e4p-6}};

void expect_pinned(const resample::FirstPhotonBiasCorrector& fpb, const PinnedBias& want) {
  for (std::size_t k = 0; k < kPinnedPoints.size(); ++k)
    EXPECT_EQ(fpb.bias(kPinnedPoints[k][0], kPinnedPoints[k][1]), want.bias[k])
        << "channels " << want.channels << " seed " << want.seed << " point " << k;
}

TEST(Fpb, SharedCalibrationMatchesPinnedValues) {
  for (const auto& want : kPinned) {
    expect_pinned(resample::FirstPhotonBiasCorrector(0.45, want.channels, want.seed), want);
    // A second construction and a copy read the same table.
    const resample::FirstPhotonBiasCorrector again(0.45, want.channels, want.seed);
    expect_pinned(resample::FirstPhotonBiasCorrector{again}, want);
  }
  // Channel counts clamp to 1 before keying the table.
  const resample::FirstPhotonBiasCorrector zero(0.45, 0);
  EXPECT_EQ(zero.channels(), 1);
  expect_pinned(zero, kPinned[0]);
}

TEST(Fpb, ConcurrentConstructionsGetPinnedValues) {
  // Eight threads construct one key at once: the first calibrates and the
  // others wait for its table.
  constexpr int kThreads = 8;
  const PinnedBias& want = kPinnedRaced;
  std::latch start(kThreads);
  std::vector<std::array<double, 4>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const resample::FirstPhotonBiasCorrector fpb(0.45, want.channels, want.seed);
      for (std::size_t k = 0; k < kPinnedPoints.size(); ++k)
        got[static_cast<std::size_t>(i)][k] = fpb.bias(kPinnedPoints[k][0], kPinnedPoints[k][1]);
    });
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g, want.bias);
}

TEST(Fpb, TableKeyCoversDeadTimeChannelsAndSeed) {
  // Correctors that differ in one input only must not share a table.
  const resample::FirstPhotonBiasCorrector base(0.45, 16, 0xF1B5);
  const resample::FirstPhotonBiasCorrector other_seed(0.45, 16, 0xF1B7);
  const resample::FirstPhotonBiasCorrector other_channels(0.45, 15, 0xF1B5);
  const resample::FirstPhotonBiasCorrector other_dead_time(0.15, 16, 0xF1B5);
  for (const auto& [rate, sigma] : kPinnedPoints) {
    EXPECT_NE(base.bias(rate, sigma), other_seed.bias(rate, sigma));
    EXPECT_NE(base.bias(rate, sigma), other_channels.bias(rate, sigma));
  }
  // Both dead times exceed a narrow return's spread, so only a wide one
  // tells them apart.
  EXPECT_NE(base.bias(10.0, 0.25), other_dead_time.bias(10.0, 0.25));
}

TEST(Fpb, EndToEndBiasReduction) {
  // Simulate a bright flat scene, resample with and without correction; the
  // corrected mean must sit closer to the true surface height.
  geo::GeoCorrections corrections(7);
  atl03::SurfaceConfig scfg;
  scfg.length_m = 4'000.0;
  scfg.mean_floe_m = 1e9;  // all thick ice
  scfg.ridge_density = 0.0;
  const geo::GroundTrack track(geo::PolarStereo::epsg3976().forward({-167.0, -75.0}), 0.2);
  const atl03::SurfaceModel surface(scfg, track, corrections, 5);

  atl03::InstrumentConfig icfg;
  icfg.strong_channels = 2;  // exaggerate the dead-time effect
  icfg.background_rate_mhz = 0.0;
  const auto granule = atl03::PhotonSimulator(icfg, 6).simulate_granule(surface, "FPB", 0.0);
  const auto pre = atl03::preprocess_beam(granule, granule.beam(atl03::BeamId::Gt2r), corrections);
  auto segs = resample::resample(pre);

  double true_mean = 0.0;
  for (const auto& s : segs) true_mean += surface.surface_height(s.s, s.t) -
                                          corrections.total(s.t, s.x, s.y);
  true_mean /= static_cast<double>(segs.size());

  auto mean_h = [](const std::vector<Segment>& v) {
    double m = 0.0;
    for (const auto& s : v) m += s.h_mean;
    return m / static_cast<double>(v.size());
  };
  const double before = mean_h(segs);
  resample::FirstPhotonBiasCorrector(icfg.dead_time_m, icfg.strong_channels).apply(segs);
  const double after = mean_h(segs);
  EXPECT_LT(std::abs(after - true_mean), std::abs(before - true_mean));
}

}  // namespace
