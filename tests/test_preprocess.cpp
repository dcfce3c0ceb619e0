// Preprocessing tests: confidence filtering, geophysical correction,
// outlier rejection (bit-identical to the per-bin reference filter, with NaN
// heights, gaps and a photon far along the track), along-track ordering,
// photons with non-finite times or positions, and malformed background bins.
// The columnar pass against the per-photon reference it replaced: byte for
// byte without corrections but for the positions projected by the expansion
// between segment ends, and with corrections at the 20 m segment rate
// within measured bounds on heights, positions, segments and freeboard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atl03/photon_sim.hpp"
#include "atl03/preprocess.hpp"
#include "core/config.hpp"
#include "geo/polar_stereo.hpp"
#include "pipeline/product_builder.hpp"
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
  const double median = util::median(pre.h);
  for (std::size_t i = 0; i < pre.size(); ++i) EXPECT_LT(std::abs(pre.h[i] - median), 50.0);
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

/// Every column byte for byte, the heights too unless `with_h` is false and
/// x and y too unless `with_xy` is false.
void expect_same_columns(const atl03::PreprocessedBeam& got,
                         const atl03::PreprocessedBeam& expected, bool with_h = true,
                         bool with_xy = true) {
  expect_same_bits(got.s, expected.s, "s");
  if (with_h) expect_same_bits(got.h, expected.h, "h");
  expect_same_bits(got.t, expected.t, "t");
  if (with_xy) {
    expect_same_bits(got.x, expected.x, "x");
    expect_same_bits(got.y, expected.y, "y");
  }
  expect_same_bits(got.bckgrd_rate, expected.bckgrd_rate, "bckgrd_rate");
  EXPECT_EQ(got.truth_class, expected.truth_class);
}

/// The largest threshold keeps every photon: the outlier filter is off.
PreprocessConfig unfiltered(PreprocessConfig config = {}) {
  config.outlier_threshold_m = std::numeric_limits<double>::max();
  return config;
}

/// preprocess_beam against the per-bin reference applied to the same beam
/// with the filter off.
void expect_matches_per_bin_reference(const atl03::Granule& granule,
                                      const atl03::BeamData& beam,
                                      const geo::GeoCorrections& corrections) {
  const PreprocessConfig config;
  const auto all = atl03::preprocess_beam(granule, beam, corrections, unfiltered(config));
  ASSERT_GT(all.size(), 0u);
  const auto expected = per_bin_outlier_filter(all, config);
  const auto got = atl03::preprocess_beam(granule, beam, corrections, config);
  expect_same_columns(got, expected);
}

TEST(Preprocess, OutlierFilterMatchesPerBinReferenceOnFixtureBeams) {
  Fixture fx;
  for (const auto& beam : fx.granule.beams) {
    SCOPED_TRACE(atl03::beam_name(beam.beam));
    expect_matches_per_bin_reference(fx.granule, beam, fx.corrections);
  }
}

/// Four variants of `raw`: spiked, then NaN heights, then a 1 km gap, and
/// all heights NaN.
std::vector<atl03::BeamData> nan_and_gap_beams(const atl03::BeamData& raw) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double s_min = *std::min_element(raw.along_track.begin(), raw.along_track.end());

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
  return {spiked, nans, gap, all_nan};
}

TEST(Preprocess, OutlierFilterMatchesPerBinReferenceWithNanHeightsAndGaps) {
  Fixture fx;
  const auto beams = nan_and_gap_beams(fx.granule.beam(BeamId::Gt2r));
  for (const auto& beam : beams)
    expect_matches_per_bin_reference(fx.granule, beam, fx.corrections);

  // Every NaN-height photon is kept: it is never farther than the threshold.
  const auto& all_nan = beams.back();
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

TEST(Preprocess, PhotonsWithNonFiniteTimeOrPositionAreDropped) {
  // Such a photon cannot be placed on the track: a NaN latitude or
  // longitude projected to NaN x, y and height, and +inf latitude made the
  // projection throw for the whole beam. A beam holding some must
  // preprocess exactly like the same beam without them, column for column.
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double bad_values[] = {nan, inf, -inf};

  // Every 97th high-confidence photon, the first one included, cycling
  // through {time, along-track, lat, lon} × {NaN, +inf, -inf}.
  auto poisoned = raw;
  std::vector<double>* fields[] = {&poisoned.delta_time, &poisoned.along_track, &poisoned.lat,
                                   &poisoned.lon};
  std::vector<std::size_t> drop;
  for (std::size_t i = 0, high = 0; i < raw.size(); ++i) {
    if (raw.signal_conf[i] < static_cast<std::int8_t>(SignalConf::High)) continue;
    if (high++ % 97 != 0) continue;
    const std::size_t k = drop.size();
    (*fields[k % 4])[i] = bad_values[k / 4 % 3];
    drop.push_back(i);
  }
  ASSERT_GE(drop.size(), 12u);

  const auto got = atl03::preprocess_beam(fx.granule, poisoned, fx.corrections);
  const auto expected =
      atl03::preprocess_beam(fx.granule, without_photons(raw, drop), fx.corrections);
  ASSERT_GT(expected.size(), 0u);
  expect_same_columns(got, expected);
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

// ---------------------------------------------------------------------------
// The columnar pass against the per-photon reference
// ---------------------------------------------------------------------------

/// How far heights and freeboard may move when the correction is evaluated
/// at the 20 m segment rate instead of at every photon. Set from the largest
/// shifts measured on the fixture's beams: 2.3e-5 m for a photon height,
/// 1.9e-5 m for a segment height and for a freeboard. A failure here is a
/// regression to explain, never a bound to widen.
constexpr double kMaxHeightShiftM = 3e-5;
constexpr double kMaxFreeboardShiftM = 3e-5;

/// How far x and y may move when the photons between a 20 m segment's first
/// and last photon are projected by PolarStereo::Local instead of forward().
/// Set from the largest shift measured on the fixture's beams: 1.16e-9 m
/// for a photon and for a segment's mean position, 2.5 units in the last
/// place of coordinates of 2.2e6 m. A failure is a regression to explain,
/// never a bound to widen.
constexpr double kMaxProjectionShiftM = 1.5e-9;

/// Whether photon `k` of the sorted distances `s` is the first or the last
/// of its 20 m segment.
bool is_segment_end(const std::vector<double>& s, std::size_t k) {
  const auto segment = [](double d) { return std::floor(d / 20.0); };
  return k == 0 || k + 1 == s.size() || segment(s[k - 1]) != segment(s[k]) ||
         segment(s[k + 1]) != segment(s[k]);
}

/// `got` against the per-photon reference: every column byte for byte
/// (the heights unless `with_h` is false) but x and y, which are within
/// kMaxProjectionShiftM and bit for bit at both ends of each 20 m segment.
/// The ends are known only when the outlier filter was off (`filtered`
/// false): the filter can drop a segment's end photon and leave one
/// projected by the expansion at the end of the output's segment. Returns
/// the largest shift of an x or y.
double expect_matches_reference(const atl03::PreprocessedBeam& got,
                                const atl03::PreprocessedBeam& expected, bool with_h,
                                bool filtered) {
  expect_same_columns(got, expected, with_h, /*with_xy=*/false);
  EXPECT_EQ(got.x.size(), expected.x.size());
  EXPECT_EQ(got.y.size(), expected.y.size());
  double max_shift = 0.0;
  for (std::size_t k = 0; k < std::min(got.size(), expected.size()); ++k) {
    if (!filtered && is_segment_end(got.s, k)) {
      EXPECT_EQ(got.x[k], expected.x[k]) << k;
      EXPECT_EQ(got.y[k], expected.y[k]) << k;
    }
    max_shift = std::max({max_shift, std::abs(got.x[k] - expected.x[k]),
                          std::abs(got.y[k] - expected.y[k])});
  }
  EXPECT_LE(max_shift, kMaxProjectionShiftM);
  return max_shift;
}

/// The rate interpolation of the reference below, as preprocess has it.
double reference_background(const std::vector<double>& bin_t,
                            const std::vector<double>& bin_rate, double t) {
  if (bin_t.empty()) return 0.0;
  if (t <= bin_t.front()) return bin_rate.front();
  if (t >= bin_t.back()) return bin_rate.back();
  const auto it = std::lower_bound(bin_t.begin(), bin_t.end(), t);
  const auto i = static_cast<std::size_t>(it - bin_t.begin());
  const double t0 = bin_t[i - 1], t1 = bin_t[i];
  const double w = (t - t0) / (t1 - t0);
  return bin_rate[i - 1] * (1.0 - w) + bin_rate[i] * w;
}

/// preprocess_beam as it was before the columnar pass: photon indices sorted
/// by distance, columns grown photon by photon, the correction evaluated at
/// every photon, and the outlier filter copying into a second beam. Its
/// per-run filter matched the per-bin reference above bit for bit, so that
/// one stands in for it. Callers give it finite positions only.
atl03::PreprocessedBeam per_photon_reference(const atl03::Granule& granule,
                                             const atl03::BeamData& beam,
                                             const geo::GeoCorrections& corrections,
                                             const PreprocessConfig& config) {
  const geo::PolarStereo proj = geo::PolarStereo::epsg3976();
  atl03::PreprocessedBeam out;
  out.beam = beam.beam;
  out.track_origin = granule.track_origin;
  out.track_heading = granule.track_heading;
  out.epoch_time = granule.epoch_time;
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < beam.size(); ++i)
    if (beam.signal_conf[i] >= static_cast<std::int8_t>(config.min_conf) &&
        std::isfinite(beam.along_track[i]) && std::isfinite(beam.delta_time[i]))
      keep.push_back(i);
  std::sort(keep.begin(), keep.end(),
            [&](std::size_t a, std::size_t b) { return beam.along_track[a] < beam.along_track[b]; });
  for (std::size_t i : keep) {
    const geo::Xy p = proj.forward({beam.lon[i], beam.lat[i]});
    double h = beam.h[i];
    if (config.apply_geo_correction)
      h -= corrections.total(granule.epoch_time + beam.delta_time[i], p.x, p.y);
    out.s.push_back(beam.along_track[i]);
    out.h.push_back(h);
    out.t.push_back(beam.delta_time[i]);
    out.x.push_back(p.x);
    out.y.push_back(p.y);
    out.bckgrd_rate.push_back(
        reference_background(beam.bckgrd_delta_time, beam.bckgrd_rate, beam.delta_time[i]));
    if (!beam.truth_class.empty()) out.truth_class.push_back(beam.truth_class[i]);
  }
  return out.s.empty() ? out : per_bin_outlier_filter(out, config);
}

/// `raw` with every along-track distance rounded to 0.5 m, so that many
/// photons tie and the sort's order among them shows.
atl03::BeamData tied_beam(const atl03::BeamData& raw) {
  auto tied = raw;
  for (double& s : tied.along_track) s = std::round(2.0 * s) / 2.0;
  return tied;
}

/// `raw` with every photon past 3 km moved 50 km further along the track,
/// its position and time with it, so the corrections on either side of the
/// gap differ by about 0.3 m.
atl03::BeamData gap_beam(const atl03::Granule& granule, const atl03::BeamData& raw) {
  constexpr double kGapM = 50'000.0;
  constexpr double kGroundSpeed = 7'000.0;  // m/s
  const geo::PolarStereo proj = geo::PolarStereo::epsg3976();
  const double s_min = *std::min_element(raw.along_track.begin(), raw.along_track.end());
  auto gap = raw;
  for (std::size_t i = 0; i < gap.size(); ++i) {
    if (gap.along_track[i] - s_min <= 3000.0) continue;
    const geo::Xy p = proj.forward({gap.lon[i], gap.lat[i]});
    const geo::LonLat moved = proj.inverse({p.x + kGapM * std::cos(granule.track_heading),
                                            p.y + kGapM * std::sin(granule.track_heading)});
    gap.lon[i] = moved.lon;
    gap.lat[i] = moved.lat;
    gap.along_track[i] += kGapM;
    gap.delta_time[i] += kGapM / kGroundSpeed;
  }
  return gap;
}

/// Ten photons of `raw` placed in three segments: four at one distance
/// (the end photons share it), one alone, five spread out. The distances
/// do not match the positions, so only the segment logic is under test.
atl03::BeamData short_segments_beam(const atl03::BeamData& raw) {
  const std::vector<double> along = {5.0, 5.0, 5.0, 5.0, 25.0, 41.0, 43.0, 45.0, 47.0, 49.0};
  std::vector<std::size_t> drop;
  for (std::size_t i = along.size(); i < raw.size(); ++i) drop.push_back(i);
  auto beam = without_photons(raw, drop);
  beam.along_track = along;
  beam.signal_conf.assign(along.size(), static_cast<std::int8_t>(SignalConf::High));
  return beam;
}

TEST(Preprocess, ColumnarPassMatchesPerPhotonReferenceWithoutCorrections) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  std::vector<atl03::BeamData> beams = fx.granule.beams;
  for (auto& beam : nan_and_gap_beams(raw)) beams.push_back(std::move(beam));
  beams.push_back(tied_beam(raw));
  PreprocessConfig config;
  config.apply_geo_correction = false;
  double max_shift = 0.0;
  for (std::size_t b = 0; b < beams.size(); ++b) {
    SCOPED_TRACE(b);
    const auto expected = per_photon_reference(fx.granule, beams[b], fx.corrections, config);
    ASSERT_GT(expected.size(), 0u);
    const auto got = atl03::preprocess_beam(fx.granule, beams[b], fx.corrections, config);
    max_shift = std::max(max_shift, expect_matches_reference(got, expected, /*with_h=*/true,
                                                             /*filtered=*/true));
  }
  EXPECT_GT(max_shift, 0.0);  // the photons between segment ends are expanded
}

TEST(Preprocess, SegmentRateCorrectionsMoveHeightsWithinBound) {
  // Only heights move, by at most the bound, and the photons at either end
  // of each 20 m segment keep their per-photon correction bit for bit.
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  std::vector<atl03::BeamData> beams = fx.granule.beams;
  beams.push_back(tied_beam(raw));
  beams.push_back(gap_beam(fx.granule, raw));
  const PreprocessConfig config = unfiltered();
  double max_shift = 0.0;
  for (std::size_t b = 0; b < beams.size(); ++b) {
    SCOPED_TRACE(b);
    const auto expected = per_photon_reference(fx.granule, beams[b], fx.corrections, config);
    const auto got = atl03::preprocess_beam(fx.granule, beams[b], fx.corrections, config);
    ASSERT_GT(expected.size(), 0u);
    expect_matches_reference(got, expected, /*with_h=*/false, /*filtered=*/false);
    ASSERT_EQ(got.h.size(), expected.h.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      max_shift = std::max(max_shift, std::abs(got.h[k] - expected.h[k]));
      if (is_segment_end(got.s, k)) EXPECT_EQ(got.h[k], expected.h[k]) << k;
    }
  }
  EXPECT_GT(max_shift, 0.0);  // interior photons are interpolated
  EXPECT_LE(max_shift, kMaxHeightShiftM);
}

TEST(Preprocess, SegmentRateCorrectionsHandleOnePhotonAndTiedSegments) {
  // A one-photon segment is exact, and a segment whose photons all share
  // one distance divides by no zero: its interior photons take the first
  // photon's correction.
  Fixture fx;
  const auto beam = short_segments_beam(fx.granule.beam(BeamId::Gt2r));
  const PreprocessConfig config = unfiltered();
  PreprocessConfig uncorrected = config;
  uncorrected.apply_geo_correction = false;
  const auto expected = per_photon_reference(fx.granule, beam, fx.corrections, config);
  const auto got = atl03::preprocess_beam(fx.granule, beam, fx.corrections, config);
  const auto raw = atl03::preprocess_beam(fx.granule, beam, fx.corrections, uncorrected);
  ASSERT_EQ(got.size(), 10u);
  expect_matches_reference(got, expected, /*with_h=*/false, /*filtered=*/false);
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_TRUE(std::isfinite(got.h[k]));
    if (is_segment_end(got.s, k)) EXPECT_EQ(got.h[k], expected.h[k]);
  }
  const double c_first = fx.corrections.total(got.epoch_time + got.t[0], got.x[0], got.y[0]);
  for (std::size_t k = 1; k < 3; ++k) EXPECT_EQ(got.h[k], raw.h[k] - c_first) << k;
}

TEST(Preprocess, InteriorPhotonInTheOppositeHemisphereThrows) {
  // Only a segment's end photons take PolarStereo::forward; a photon between
  // them that forward() would reject must still fail the beam.
  Fixture fx;
  auto beam = short_segments_beam(fx.granule.beam(BeamId::Gt2r));
  beam.lat[7] = -beam.lat[7];  // 45 m: between 41 m and 49 m
  EXPECT_THROW(atl03::preprocess_beam(fx.granule, beam, fx.corrections), std::invalid_argument);
}

TEST(Preprocess, SegmentRateCorrectionsMoveSegmentsAndFreeboardWithinBounds) {
  // Downstream of the default pipeline: resample -> FPB gives the same
  // segments but for their heights, and sea surface -> freeboard resumed
  // from the segments' truth classes gives the same points but for their
  // freeboard.
  Fixture fx;
  const auto config = core::PipelineConfig::tiny();
  const pipeline::ProductBuilder builder(config, fx.corrections);
  const auto segments_of = [&](const atl03::PreprocessedBeam& pre) {
    auto art = pipeline::Artifacts::from_preprocessed(pre);
    builder.run_until(art, pipeline::StageId::fpb);
    return art.take_segments();
  };
  const auto freeboard_of = [&](std::vector<resample::Segment> segments) {
    std::vector<atl03::SurfaceClass> classes;
    for (const auto& seg : segments) classes.push_back(seg.truth);
    auto art = pipeline::Artifacts::resume(std::move(segments), std::move(classes));
    builder.build(art, pipeline::ProductKind::freeboard, nullptr,
                  seasurface::Method::NasaEquation);
    return art.freeboard_out().points;
  };
  double max_height_shift = 0.0;
  double max_freeboard_shift = 0.0;
  std::size_t points = 0;
  for (const auto& beam : fx.granule.beams) {
    SCOPED_TRACE(atl03::beam_name(beam.beam));
    const auto expected_segments = segments_of(
        per_photon_reference(fx.granule, beam, fx.corrections, config.preprocess));
    const auto got_segments =
        segments_of(atl03::preprocess_beam(fx.granule, beam, fx.corrections, config.preprocess));
    ASSERT_EQ(got_segments.size(), expected_segments.size());
    for (std::size_t i = 0; i < got_segments.size(); ++i) {
      const auto& g = got_segments[i];
      const auto& e = expected_segments[i];
      EXPECT_EQ(g.s, e.s);
      EXPECT_EQ(g.t, e.t);
      EXPECT_NEAR(g.x, e.x, kMaxProjectionShiftM);
      EXPECT_NEAR(g.y, e.y, kMaxProjectionShiftM);
      EXPECT_EQ(g.n_photons, e.n_photons);
      EXPECT_EQ(g.photon_rate, e.photon_rate);
      EXPECT_EQ(g.bckgrd_rate, e.bckgrd_rate);
      EXPECT_EQ(g.truth, e.truth);
      for (const double d : {g.h_mean - e.h_mean, g.h_median - e.h_median, g.h_std - e.h_std,
                             g.h_min - e.h_min})
        max_height_shift = std::max(max_height_shift, std::abs(d));
    }

    const auto expected_points = freeboard_of(expected_segments);
    const auto got_points = freeboard_of(got_segments);
    ASSERT_EQ(got_points.size(), expected_points.size());
    for (std::size_t i = 0; i < got_points.size(); ++i) {
      EXPECT_EQ(got_points[i].s, expected_points[i].s);
      EXPECT_EQ(got_points[i].cls, expected_points[i].cls);
      max_freeboard_shift = std::max(
          max_freeboard_shift, std::abs(got_points[i].freeboard - expected_points[i].freeboard));
    }
    points += got_points.size();
  }
  ASSERT_GT(points, 0u);
  EXPECT_LE(max_height_shift, kMaxHeightShiftM);
  EXPECT_LE(max_freeboard_shift, kMaxFreeboardShiftM);
}

}  // namespace
