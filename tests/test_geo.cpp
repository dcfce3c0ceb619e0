// Projection, correction-model and track-geometry tests, including the
// round-trip property sweep over the Ross Sea (and wider Antarctic) grid and
// the local expansion of the projection against forward().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "geo/corrections.hpp"
#include "geo/polar_stereo.hpp"
#include "geo/track.hpp"
#include "geo/wgs84.hpp"

namespace {

using namespace is2::geo;

TEST(PolarStereo, ScaleIsUnityAtStandardParallel) {
  const PolarStereo p = PolarStereo::epsg3976();
  EXPECT_NEAR(p.scale_factor(-70.0), 1.0, 1e-12);
  // Scale grows away from the standard parallel toward the equator side and
  // shrinks slightly toward the pole.
  EXPECT_GT(p.scale_factor(-60.0), 1.0);
  EXPECT_LT(p.scale_factor(-85.0), 1.0);
}

TEST(PolarStereo, PoleMapsToOrigin) {
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy xy = p.forward({0.0, -90.0});
  EXPECT_NEAR(xy.x, 0.0, 1e-6);
  EXPECT_NEAR(xy.y, 0.0, 1e-6);
}

TEST(PolarStereo, KnownDistanceFromPole) {
  // At lat -70 the distance from the pole is ~2,215 km for this projection
  // family (sanity envelope, not an authoritative test vector).
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy xy = p.forward({0.0, -70.0});
  const double rho = std::hypot(xy.x, xy.y);
  EXPECT_GT(rho, 2.10e6);
  EXPECT_LT(rho, 2.30e6);
}

TEST(PolarStereo, LongitudeRotatesPosition) {
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy a = p.forward({0.0, -75.0});
  const Xy b = p.forward({90.0, -75.0});
  EXPECT_NEAR(std::hypot(a.x, a.y), std::hypot(b.x, b.y), 1e-6);
  const double dot = a.x * b.x + a.y * b.y;
  EXPECT_NEAR(dot, 0.0, 1.0);  // 90 degrees apart
}

TEST(PolarStereo, RejectsWrongHemisphere) {
  const PolarStereo south = PolarStereo::epsg3976();
  EXPECT_THROW(south.forward({0.0, 45.0}), std::invalid_argument);
  const PolarStereo north = PolarStereo::epsg3413();
  EXPECT_THROW(north.forward({0.0, -45.0}), std::invalid_argument);
}

struct RoundTripCase {
  double lon;
  double lat;
};

class ProjectionRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ProjectionRoundTrip, ForwardInverseIdentity) {
  const auto [lon, lat] = GetParam();
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy xy = p.forward({lon, lat});
  const LonLat back = p.inverse(xy);
  EXPECT_NEAR(back.lat, lat, 1e-9) << "lon=" << lon << " lat=" << lat;
  // Longitude is undefined at the exact pole.
  if (lat > -89.999) {
    double dlon = back.lon - lon;
    while (dlon > 180.0) dlon -= 360.0;
    while (dlon < -180.0) dlon += 360.0;
    EXPECT_NEAR(dlon, 0.0, 1e-9) << "lon=" << lon << " lat=" << lat;
  }
}

std::vector<RoundTripCase> round_trip_grid() {
  std::vector<RoundTripCase> cases;
  // Ross Sea box (the paper's region) plus the wider hemisphere.
  for (double lon : {-180.0, -170.0, -155.0, -140.0, -60.0, 0.0, 45.0, 135.0, 179.5})
    for (double lat : {-89.9, -78.0, -74.0, -70.0, -55.0, -30.0, -5.0})
      cases.push_back({lon, lat});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ProjectionRoundTrip, ::testing::ValuesIn(round_trip_grid()));

TEST(PolarStereo, NorthVariantRoundTrips) {
  const PolarStereo p = PolarStereo::epsg3413();
  const Xy xy = p.forward({-45.0, 75.0});
  const LonLat back = p.inverse(xy);
  EXPECT_NEAR(back.lat, 75.0, 1e-9);
  EXPECT_NEAR(back.lon, -45.0, 1e-9);
}

// ---------------------------------------------------------------------------
// PolarStereo::Local against forward()
// ---------------------------------------------------------------------------

/// How far the expansion may put a point from forward() inside the radius.
/// Set from the largest distance measured on the grids below, 2.5e-9 m at
/// 60°: a few units in the last place of coordinates of 3e6 m, and as far
/// as forward() itself is from a long-double evaluation of its formulas
/// there. A failure is a regression to explain, never a bound to widen.
constexpr double kMaxExpansionErrorM = 3e-9;

/// Bit equality, so NaN results and signed zeros compare too.
bool same_bits(const Xy& a, const Xy& b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double distance(const Xy& a, const Xy& b) { return std::hypot(a.x - b.x, a.y - b.y); }

/// A (2n+1)² grid of points around `ref`, offset by up to `scale` times the
/// expansion's radius in latitude and in longitude. Longitudes wrap into
/// [-180, 180); latitudes past a pole are left out.
std::vector<LonLat> grid_around(const LonLat& ref, double scale, int n = 8) {
  std::vector<LonLat> points;
  for (int a = -n; a <= n; ++a)
    for (int b = -n; b <= n; ++b) {
      const double lat = ref.lat + rad2deg(PolarStereo::Local::kMaxDlatRad) * scale * a / n;
      double lon = ref.lon + rad2deg(PolarStereo::Local::kMaxDlonRad) * scale * b / n;
      if (lon >= 180.0) lon -= 360.0;
      if (lon < -180.0) lon += 360.0;
      if (std::abs(lat) <= 90.0) points.push_back({lon, lat});
    }
  return points;
}

struct Hemi {
  PolarStereo proj;
  double sign;  ///< of the hemisphere's latitudes
};

std::vector<Hemi> both_hemispheres() {
  return {{PolarStereo::epsg3976(), -1.0}, {PolarStereo::epsg3413(), 1.0}};
}

TEST(PolarStereoLocal, MatchesForwardWithinTheRadius) {
  // References from 60° to 89.99° in each projection's hemisphere, at
  // longitudes around the globe; points out to just inside the radius.
  double max_error = 0.0;
  for (const auto& [proj, sign] : both_hemispheres())
    for (const double lat : {60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 89.0, 89.9, 89.99})
      for (const double lon : {-179.5, -135.0, -45.0, 0.0, 30.0, 90.0, 179.5}) {
        const LonLat ref{lon, sign * lat};
        const auto local = proj.local(ref);
        for (const auto& p : grid_around(ref, 0.999))
          max_error = std::max(max_error, distance(local.forward(p), proj.forward(p)));
      }
  EXPECT_GT(max_error, 0.0);
  EXPECT_LE(max_error, kMaxExpansionErrorM);
}

TEST(PolarStereoLocal, RunAcrossTheAntimeridianStaysOnTheExpansion) {
  // The reference sits just west of +180°; half of its run wraps to -180°.
  // The longitude offset is wrapped, so those points are inside the radius:
  // the expansion's rounding shows on most of them, where a fallback to
  // forward() would match it bit for bit.
  for (const auto& [proj, sign] : both_hemispheres()) {
    const LonLat ref{180.0 - 0.3 * rad2deg(PolarStereo::Local::kMaxDlonRad), sign * 75.0};
    const auto local = proj.local(ref);
    std::size_t wrapped = 0, expanded = 0;
    for (const auto& p : grid_around(ref, 0.999)) {
      if (p.lon > 0.0) continue;
      ++wrapped;
      const Xy got = local.forward(p);
      EXPECT_LE(distance(got, proj.forward(p)), kMaxExpansionErrorM);
      expanded += !same_bits(got, proj.forward(p));
    }
    ASSERT_GT(wrapped, 0u);
    EXPECT_GT(expanded, wrapped / 2) << expanded << " of " << wrapped;
  }
}

TEST(PolarStereoLocal, OutsideTheRadiusIsForwardBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [proj, sign] : both_hemispheres()) {
    const LonLat ref{-165.0, sign * 75.5};
    const auto local = proj.local(ref);
    std::vector<LonLat> points;
    for (const auto& p : grid_around(ref, 3.0))
      if (std::abs(p.lat - ref.lat) > rad2deg(1.01 * PolarStereo::Local::kMaxDlatRad) ||
          std::abs(p.lon - ref.lon) > rad2deg(1.01 * PolarStereo::Local::kMaxDlonRad))
        points.push_back(p);
    for (const LonLat p : {LonLat{15.0, ref.lat}, LonLat{-165.0, sign * 60.0},
                           LonLat{-165.0, sign * 90.0}, LonLat{nan, ref.lat},
                           LonLat{-165.0, nan}, LonLat{inf, ref.lat}})
      points.push_back(p);
    for (const auto& p : points)
      EXPECT_TRUE(same_bits(local.forward(p), proj.forward(p))) << p.lon << " " << p.lat;
  }
}

TEST(PolarStereoLocal, ReferenceAtThePoleFallsBackEverywhere) {
  // At the pole ρ = 0 and its derivative is 0·∞; a reference closer to it
  // than the radius falls back too. Every point of the run is forward().
  for (const auto& [proj, sign] : both_hemispheres())
    for (const double colat : {0.0, 0.5 * rad2deg(PolarStereo::Local::kMaxDlatRad)})
      for (const double lon : {0.0, 120.0}) {
        const LonLat ref{lon, sign * (90.0 - colat)};
        const auto local = proj.local(ref);
        std::vector<LonLat> points = grid_around(ref, 1.0);
        for (const double far_lon : {-170.0, -60.0, 45.0})
          points.push_back({far_lon, ref.lat});
        for (const auto& p : points)
          EXPECT_TRUE(same_bits(local.forward(p), proj.forward(p))) << p.lon << " " << p.lat;
      }
}

TEST(PolarStereoLocal, OppositeHemisphereThrows) {
  for (const auto& [proj, sign] : both_hemispheres()) {
    EXPECT_THROW(proj.local({0.0, -sign * 45.0}), std::invalid_argument);
    // A reference a hair inside the hemisphere at the equator: a point a
    // hair across it is inside the radius and still rejected.
    const auto local = proj.local({10.0, sign * 1e-7});
    EXPECT_THROW(local.forward({10.0, -sign * 1e-7}), std::invalid_argument);
    EXPECT_THROW(local.forward({10.0, -sign * 45.0}), std::invalid_argument);
    EXPECT_NO_THROW(local.forward({10.0, sign * 2e-7}));
  }
}

TEST(Corrections, GeoidHasLargeOffsetAndSmallWaves) {
  const GeoidModel geoid(1);
  const double u0 = geoid.undulation(0.0, 0.0);
  EXPECT_LT(u0, -50.0);
  EXPECT_GT(u0, -60.0);
  // Variation over 100 km is sub-meter.
  const double u1 = geoid.undulation(100'000.0, 50'000.0);
  EXPECT_LT(std::abs(u1 - u0), 2.0);
}

TEST(Corrections, TideBoundedAndTimeVarying) {
  const TideModel tide(2);
  double tmax = -1e9, tmin = 1e9;
  for (double t = 0.0; t < 48.0 * 3600.0; t += 600.0) {
    const double h = tide.tide(t, 0.0, 0.0);
    tmax = std::max(tmax, h);
    tmin = std::min(tmin, h);
  }
  EXPECT_LT(tmax, 1.5);
  EXPECT_GT(tmin, -1.5);
  EXPECT_GT(tmax - tmin, 0.1);  // actually oscillates
}

TEST(Corrections, InvertedBarometerCentimeterScale) {
  const InvertedBarometerModel ib(3);
  for (double t : {0.0, 43'200.0, 86'400.0}) {
    const double c = ib.correction(t, 1e5, -2e5);
    EXPECT_LT(std::abs(c), 0.25);
  }
}

TEST(Corrections, TotalIsSumOfParts) {
  const GeoCorrections gc(7);
  const double t = 12'345.0, x = 5e4, y = -1e5;
  const double total = gc.total(t, x, y);
  const double sum = gc.geoid().undulation(x, y) + gc.tide().tide(t, x, y) +
                     gc.inverted_barometer().correction(t, x, y);
  EXPECT_DOUBLE_EQ(total, sum);
}

TEST(GroundTrack, AlongAndCrossTrackDecomposition) {
  const GroundTrack track({100.0, 200.0}, 0.5);
  const Xy p = track.at(1234.0);
  EXPECT_NEAR(track.along_track(p), 1234.0, 1e-9);
  EXPECT_NEAR(track.cross_track(p), 0.0, 1e-9);
}

TEST(GroundTrack, OffsetMovesLeftOfTravel) {
  const GroundTrack track({0.0, 0.0}, 0.0);  // heading +x
  const GroundTrack left = track.offset(100.0);
  EXPECT_NEAR(left.origin().x, 0.0, 1e-12);
  EXPECT_NEAR(left.origin().y, 100.0, 1e-12);
  // A point on the original track is at cross-track -100 from the offset one.
  EXPECT_NEAR(left.cross_track(track.at(500.0)), -100.0, 1e-9);
}

TEST(GroundTrack, CumulativeDistance) {
  std::vector<Xy> pts{{0, 0}, {3, 4}, {3, 4}, {6, 8}};
  const auto d = cumulative_distance(pts);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
  EXPECT_DOUBLE_EQ(d[3], 10.0);
}

}  // namespace
