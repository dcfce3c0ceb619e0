// Preprocessing tests: confidence filtering, geophysical correction,
// outlier rejection (bit-identical to the per-bin reference filter, with NaN
// heights, gaps and a photon far along the track), along-track ordering,
// photons with non-finite times or positions, and malformed background bins.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atl03/photon_sim.hpp"
#include "atl03/preprocess.hpp"
#include "geo/polar_stereo.hpp"
#include "util/stats.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using atl03::PreprocessConfig;
using atl03::SignalConf;

struct FixtureImpl {
  geo::GeoCorrections corrections{7};
  atl03::SurfaceConfig scfg;
  geo::GroundTrack track;
  atl03::SurfaceModel surface;
  atl03::Granule granule;

  explicit FixtureImpl(double length = 6'000.0)
      : track(geo::PolarStereo::epsg3976().forward({-165.0, -75.5}), 0.3),
        surface((scfg.length_m = length, scfg), track, corrections, 21),
        granule(atl03::PhotonSimulator(atl03::InstrumentConfig{}, 22)
                    .simulate_granule(surface, "ATL03_PRE", 50.0)) {}
};

/// The granule simulation is the slow part; all tests here only read it, so
/// one shared instance serves the whole suite.
struct Fixture {
  static FixtureImpl& get() {
    static FixtureImpl instance;
    return instance;
  }
  geo::GeoCorrections& corrections = get().corrections;
  atl03::Granule& granule = get().granule;
};

TEST(Preprocess, KeepsOnlyHighConfidenceByDefault) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  const auto pre = atl03::preprocess_beam(fx.granule, raw, fx.corrections);
  std::size_t high = 0;
  for (auto c : raw.signal_conf)
    if (c == static_cast<std::int8_t>(SignalConf::High)) ++high;
  EXPECT_LE(pre.size(), high);           // outlier filter can drop a few more
  EXPECT_GT(pre.size(), high * 9 / 10);  // but not many
}

TEST(Preprocess, LowerThresholdKeepsMore) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  PreprocessConfig strict;
  strict.min_conf = SignalConf::High;
  PreprocessConfig loose;
  loose.min_conf = SignalConf::Low;
  const auto a = atl03::preprocess_beam(fx.granule, raw, fx.corrections, strict);
  const auto b = atl03::preprocess_beam(fx.granule, raw, fx.corrections, loose);
  EXPECT_GT(b.size(), a.size());
}

TEST(Preprocess, OutputSortedAlongTrack) {
  Fixture fx;
  const auto pre =
      atl03::preprocess_beam(fx.granule, fx.granule.beam(BeamId::Gt2r), fx.corrections);
  for (std::size_t i = 1; i < pre.size(); ++i) EXPECT_GE(pre.s[i], pre.s[i - 1]);
}

TEST(Preprocess, GeoCorrectionRemovesGeoidOffset) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  PreprocessConfig with;
  PreprocessConfig without;
  without.apply_geo_correction = false;
  const auto corrected = atl03::preprocess_beam(fx.granule, raw, fx.corrections, with);
  const auto uncorrected = atl03::preprocess_beam(fx.granule, raw, fx.corrections, without);
  // Uncorrected heights sit ~-55 m (geoid); corrected heights near zero.
  EXPECT_LT(util::mean(uncorrected.h), -40.0);
  EXPECT_LT(std::abs(util::mean(corrected.h)), 2.0);
}

TEST(Preprocess, OutlierRejectionRemovesPlantedSpike) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);  // copy
  // Plant obvious outliers tagged high-confidence.
  for (int k = 0; k < 20; ++k) {
    const std::size_t i = 100 + static_cast<std::size_t>(k) * 50;
    raw.h[i] += 200.0;
  }
  const auto pre = atl03::preprocess_beam(fx.granule, raw, fx.corrections);
  for (std::size_t i = 0; i < pre.size(); ++i)
    EXPECT_LT(std::abs(pre.h[i] - util::median(pre.h)), 50.0);
}

TEST(Preprocess, BackgroundRatesInterpolatedPerPhoton) {
  Fixture fx;
  const auto pre =
      atl03::preprocess_beam(fx.granule, fx.granule.beam(BeamId::Gt2r), fx.corrections);
  ASSERT_EQ(pre.bckgrd_rate.size(), pre.size());
  for (double r : pre.bckgrd_rate) EXPECT_GE(r, 0.0);
  // Rates should vary along the track (albedo-dependent background).
  EXPECT_GT(util::stddev(pre.bckgrd_rate), 1.0);
}

TEST(Preprocess, StrongBeamsOnlyHelper) {
  Fixture fx;
  const auto beams = atl03::preprocess_strong_beams(fx.granule, fx.corrections);
  EXPECT_EQ(beams.size(), 3u);
  for (const auto& b : beams) EXPECT_TRUE(atl03::is_strong(b.beam));
}

TEST(Preprocess, TruthCarriedThrough) {
  Fixture fx;
  const auto pre =
      atl03::preprocess_beam(fx.granule, fx.granule.beam(BeamId::Gt2r), fx.corrections);
  ASSERT_EQ(pre.truth_class.size(), pre.size());
}

/// The outlier filter as it was when it kept one photon vector and one
/// median per bin of the whole along-track span: the reference the per-run
/// filter must match bit for bit. `out` is the sorted, corrected photon
/// series the filter sees.
atl03::PreprocessedBeam per_bin_outlier_filter(const atl03::PreprocessedBeam& out,
                                               const PreprocessConfig& config) {
  const double s0 = out.s.front();
  const auto n_bins =
      static_cast<std::size_t>((out.s.back() - s0) / config.outlier_bin_m) + 1;
  std::vector<std::vector<double>> bins(n_bins);
  for (std::size_t i = 0; i < out.s.size(); ++i)
    bins[static_cast<std::size_t>((out.s[i] - s0) / config.outlier_bin_m)].push_back(out.h[i]);
  std::vector<double> bin_median(n_bins, 0.0);
  for (std::size_t b = 0; b < n_bins; ++b)
    bin_median[b] = bins[b].empty() ? std::numeric_limits<double>::quiet_NaN()
                                    : util::median(bins[b]);
  // Fill empty bins from the nearest non-empty neighbour.
  for (std::size_t b = 0; b < n_bins; ++b) {
    if (!std::isnan(bin_median[b])) continue;
    for (std::size_t d = 1; d < n_bins; ++d) {
      if (b >= d && !std::isnan(bin_median[b - d])) { bin_median[b] = bin_median[b - d]; break; }
      if (b + d < n_bins && !std::isnan(bin_median[b + d])) { bin_median[b] = bin_median[b + d]; break; }
    }
  }

  atl03::PreprocessedBeam filtered;
  filtered.beam = out.beam;
  filtered.track_origin = out.track_origin;
  filtered.track_heading = out.track_heading;
  filtered.epoch_time = out.epoch_time;
  for (std::size_t i = 0; i < out.s.size(); ++i) {
    const auto b = static_cast<std::size_t>((out.s[i] - s0) / config.outlier_bin_m);
    if (std::abs(out.h[i] - bin_median[b]) > config.outlier_threshold_m) continue;
    filtered.s.push_back(out.s[i]);
    filtered.h.push_back(out.h[i]);
    filtered.t.push_back(out.t[i]);
    filtered.x.push_back(out.x[i]);
    filtered.y.push_back(out.y[i]);
    filtered.bckgrd_rate.push_back(out.bckgrd_rate[i]);
    if (!out.truth_class.empty()) filtered.truth_class.push_back(out.truth_class[i]);
  }
  return filtered;
}

/// Byte equality, so NaN heights compare equal to themselves.
void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const char* field) {
  ASSERT_EQ(a.size(), b.size()) << field;
  EXPECT_TRUE(a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0)
      << field;
}

/// preprocess_beam against the per-bin reference applied to the same beam
/// with the filter off (the largest finite threshold keeps every photon).
void expect_matches_per_bin_reference(const atl03::Granule& granule,
                                      const atl03::BeamData& beam,
                                      const geo::GeoCorrections& corrections) {
  const PreprocessConfig config;
  PreprocessConfig unfiltered = config;
  unfiltered.outlier_threshold_m = std::numeric_limits<double>::max();
  const auto all = atl03::preprocess_beam(granule, beam, corrections, unfiltered);
  ASSERT_GT(all.size(), 0u);
  const auto expected = per_bin_outlier_filter(all, config);
  const auto got = atl03::preprocess_beam(granule, beam, corrections, config);
  expect_same_bits(got.s, expected.s, "s");
  expect_same_bits(got.h, expected.h, "h");
  expect_same_bits(got.t, expected.t, "t");
  expect_same_bits(got.x, expected.x, "x");
  expect_same_bits(got.y, expected.y, "y");
  expect_same_bits(got.bckgrd_rate, expected.bckgrd_rate, "bckgrd_rate");
  EXPECT_EQ(got.truth_class, expected.truth_class);
}

TEST(Preprocess, OutlierFilterMatchesPerBinReferenceOnFixtureBeams) {
  Fixture fx;
  for (const auto& beam : fx.granule.beams) {
    SCOPED_TRACE(atl03::beam_name(beam.beam));
    expect_matches_per_bin_reference(fx.granule, beam, fx.corrections);
  }
}

TEST(Preprocess, OutlierFilterMatchesPerBinReferenceWithNanHeightsAndGaps) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double s_min = raw.along_track[0];
  for (double s : raw.along_track) s_min = std::min(s_min, s);

  // Spikes the filter must reject, so the comparison covers rejections.
  auto spiked = raw;
  for (std::size_t i = 0; i < spiked.size(); i += 53) spiked.h[i] += 200.0;

  // NaN heights. In the first bins (no median to their left) and in two
  // bins mid-track, all photons but every 9th are NaN and those few are
  // spikes: where their bin's median is NaN, a neighbour's median must
  // reject them. Scattered NaNs elsewhere.
  auto nans = spiked;
  for (std::size_t i = 0; i < nans.size(); ++i) {
    const double s = nans.along_track[i] - s_min;
    const bool sparse = s < 60.0 || (s >= 1000.0 && s < 1050.0);
    if (sparse) nans.h[i] = i % 9 == 0 ? nans.h[i] + 200.0 : nan;
    if (i % 31 == 0) nans.h[i] = nan;
  }

  // A 1 km gap: every photon past 3 km moves 1 km further along the track
  // and 10 m up. Right after the gap, bins of NaNs with a few finite photons
  // at the new level: a NaN median there takes the last median before the
  // gap (10 m lower, so they are rejected), not the nearer one after it.
  auto gap = nans;
  for (std::size_t i = 0; i < gap.size(); ++i) {
    double& s = gap.along_track[i];
    if (s - s_min <= 3000.0) continue;
    s += 1000.0;
    gap.h[i] += 10.0;
    if (s - s_min < 4040.0 && i % 9 != 0) gap.h[i] = nan;
  }

  auto all_nan = raw;
  for (double& h : all_nan.h) h = nan;

  for (const auto* beam : {&spiked, &nans, &gap, &all_nan})
    expect_matches_per_bin_reference(fx.granule, *beam, fx.corrections);

  // Every NaN-height photon is kept: it is never farther than the threshold.
  const auto all = atl03::preprocess_beam(fx.granule, all_nan, fx.corrections);
  std::size_t high = 0;
  for (auto c : all_nan.signal_conf)
    if (c >= static_cast<std::int8_t>(SignalConf::High)) ++high;
  EXPECT_EQ(all.size(), high);
}

TEST(Preprocess, DistantPhotonCostsNoPerBinAllocation) {
  // Three photons, one 1e11 m along the track: per-bin storage over that
  // span would be 4e9 bins. Each photon sits alone or with its neighbour
  // in its bin, so all three are kept. At ±1e300 m the distance is finite
  // but its bin number is no size_t.
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  atl03::BeamData beam;
  beam.beam = raw.beam;
  for (std::size_t i = 0; i < 3; ++i) {
    beam.delta_time.push_back(raw.delta_time[i]);
    beam.lat.push_back(raw.lat[i]);
    beam.lon.push_back(raw.lon[i]);
    beam.h.push_back(0.1 * static_cast<double>(i));
    beam.signal_conf.push_back(static_cast<std::int8_t>(SignalConf::High));
  }
  for (const std::vector<double>& along : {std::vector<double>{0.0, 1.0, 1e11},
                                           std::vector<double>{-1e300, 0.0, 1e300}}) {
    beam.along_track = along;
    const auto pre = atl03::preprocess_beam(fx.granule, beam, fx.corrections);
    ASSERT_EQ(pre.size(), 3u);
    EXPECT_EQ(pre.s, along);
  }
}

/// `beam` without the photons at the ascending indices `drop`.
atl03::BeamData without_photons(const atl03::BeamData& beam,
                                const std::vector<std::size_t>& drop) {
  atl03::BeamData out = beam;
  out.delta_time.clear();
  out.lat.clear();
  out.lon.clear();
  out.h.clear();
  out.along_track.clear();
  out.signal_conf.clear();
  out.truth_class.clear();
  for (std::size_t i = 0, d = 0; i < beam.size(); ++i) {
    if (d < drop.size() && drop[d] == i) {
      ++d;
      continue;
    }
    out.delta_time.push_back(beam.delta_time[i]);
    out.lat.push_back(beam.lat[i]);
    out.lon.push_back(beam.lon[i]);
    out.h.push_back(beam.h[i]);
    out.along_track.push_back(beam.along_track[i]);
    out.signal_conf.push_back(beam.signal_conf[i]);
    if (!beam.truth_class.empty()) out.truth_class.push_back(beam.truth_class[i]);
  }
  return out;
}

TEST(Preprocess, PhotonsWithNonFiniteTimeOrAlongTrackAreDropped) {
  // Such a photon cannot be placed on the track. A beam holding some must
  // preprocess exactly like the same beam without them, column for column.
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double bad_values[] = {nan, inf, -inf};

  // Every 97th high-confidence photon, the first one included, cycling
  // through {time, along-track} × {NaN, +inf, -inf}.
  auto poisoned = raw;
  std::vector<std::size_t> drop;
  for (std::size_t i = 0, high = 0; i < raw.size(); ++i) {
    if (raw.signal_conf[i] < static_cast<std::int8_t>(SignalConf::High)) continue;
    if (high++ % 97 != 0) continue;
    const std::size_t k = drop.size();
    (k % 2 == 0 ? poisoned.delta_time : poisoned.along_track)[i] = bad_values[k / 2 % 3];
    drop.push_back(i);
  }
  ASSERT_GE(drop.size(), 6u);

  const auto got = atl03::preprocess_beam(fx.granule, poisoned, fx.corrections);
  const auto expected =
      atl03::preprocess_beam(fx.granule, without_photons(raw, drop), fx.corrections);
  ASSERT_GT(expected.size(), 0u);
  expect_same_bits(got.s, expected.s, "s");
  expect_same_bits(got.h, expected.h, "h");
  expect_same_bits(got.t, expected.t, "t");
  expect_same_bits(got.x, expected.x, "x");
  expect_same_bits(got.y, expected.y, "y");
  expect_same_bits(got.bckgrd_rate, expected.bckgrd_rate, "bckgrd_rate");
  EXPECT_EQ(got.truth_class, expected.truth_class);
}

TEST(Preprocess, MalformedBackgroundBinTimesAreRejected) {
  // The rate interpolation binary-searches these times: a NaN bin sent it
  // before the first bin, and a decreasing pair breaks its precondition.
  Fixture fx;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  ASSERT_GT(raw.bckgrd_delta_time.size(), 4u);
  EXPECT_NO_THROW(raw.check_consistent());
  std::vector<atl03::BeamData> cases(5, raw);
  cases[0].bckgrd_delta_time[0] = nan;
  cases[1].bckgrd_delta_time[3] = nan;
  cases[2].bckgrd_delta_time[0] = -inf;
  cases[3].bckgrd_delta_time.back() = inf;
  std::swap(cases[4].bckgrd_delta_time[2], cases[4].bckgrd_delta_time[3]);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_THROW(cases[c].check_consistent(), std::invalid_argument);
    EXPECT_THROW(atl03::preprocess_beam(fx.granule, cases[c], fx.corrections),
                 std::invalid_argument);
  }
}

TEST(Preprocess, InvalidConfigIsRejectedBeforeAnyPhotonIsBinned) {
  // A zero bin used to divide by zero and cast the NaN bin number to
  // size_t; preprocess_beam takes a bare PreprocessConfig, so it checks it.
  Fixture fx;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  std::vector<PreprocessConfig> cases;
  for (const double bin : {0.0, -25.0, nan, inf}) {
    PreprocessConfig c;
    c.outlier_bin_m = bin;
    cases.push_back(c);
  }
  for (const double threshold : {-1.0, nan, inf}) {
    PreprocessConfig c;
    c.outlier_threshold_m = threshold;
    cases.push_back(c);
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_THROW(cases[c].validate(), std::invalid_argument);
    EXPECT_THROW(atl03::preprocess_beam(fx.granule, raw, fx.corrections, cases[c]),
                 std::invalid_argument);
  }
  PreprocessConfig zero_threshold;
  zero_threshold.outlier_threshold_m = 0.0;
  EXPECT_NO_THROW(atl03::preprocess_beam(fx.granule, raw, fx.corrections, zero_threshold));
}

TEST(Preprocess, EmptyBeamYieldsEmptyResult) {
  Fixture fx;
  atl03::BeamData empty;
  empty.beam = BeamId::Gt1r;
  const auto pre = atl03::preprocess_beam(fx.granule, empty, fx.corrections);
  EXPECT_EQ(pre.size(), 0u);
}

}  // namespace
