// Ellipsoidal polar stereographic projection (Snyder 1987, eqs. 15-9, 14-15,
// 21-33..21-41). The paper projects both IS2 ATL03 photons and Sentinel-2
// pixels into EPSG:3976 (WGS84 / NSIDC Sea Ice Polar Stereographic South,
// standard parallel 70°S, central meridian 0°) so the two datasets share a
// grid for overlay and auto-labeling; epsg3976() builds that instance.
//
// forward() costs a sine, a tangent, a power and a sine/cosine pair per
// point. PolarStereo::Local, built by local(ref), projects the points close
// to one reference (the photons of one ATL03 geolocation segment) by a
// second-order expansion in latitude and angle addition in longitude: it
// reproduces forward() to within 3e-9 m (a few units in the last place of
// coordinates of 1e6 m) inside its fixed radius and is forward() itself
// outside it.
#pragma once

namespace is2::geo {

/// Projected coordinates in meters.
struct Xy {
  double x = 0.0;
  double y = 0.0;
};

/// Geodetic coordinates in degrees.
struct LonLat {
  double lon = 0.0;
  double lat = 0.0;
};

class PolarStereo {
 public:
  enum class Hemisphere { North, South };

  /// `lat_ts_deg`: latitude of true scale (standard parallel), signed.
  /// `lon0_deg`: central meridian.
  PolarStereo(Hemisphere hemisphere, double lat_ts_deg, double lon0_deg);

  /// EPSG:3976 — the projection used by the paper for IS2/S2 co-registration.
  static PolarStereo epsg3976();
  /// EPSG:3413 — northern-hemisphere counterpart (lat_ts 70N, lon0 -45).
  static PolarStereo epsg3413();

  /// Throws std::invalid_argument for a point in the opposite hemisphere.
  Xy forward(const LonLat& ll) const;
  LonLat inverse(const Xy& xy) const;

  class Local;
  /// The expansion about `ref`; throws like forward() for a reference in
  /// the opposite hemisphere.
  Local local(const LonLat& ref) const;

  /// Map scale factor at a given latitude (1 at the standard parallel).
  double scale_factor(double lat_deg) const;

  Hemisphere hemisphere() const { return hemisphere_; }

 private:
  double t_of_lat(double lat_rad) const;  // Snyder 15-9 (north-aspect latitude)

  Hemisphere hemisphere_;
  double lon0_rad_;
  double t_c_;   // t at the standard parallel
  double m_c_;   // m at the standard parallel
  double e_;     // first eccentricity
};

/// forward() about one reference point. In the north aspect (the south one
/// negates latitude, longitude and output, as forward() does) a point is at
/// ρ(φ) from the pole, at angle λ − λ0. ρ takes a second-order Taylor step
/// from the reference's exact ρ, ρ′ = −ρg and ρ″ = ρ(g² − g′), with
/// g = (1−e²)/((1−e²sin²φ)cos φ). The angle is the reference's plus δ, wrapped
/// into (−π, π], by angle addition with cos δ ≈ 1 − δ²/2 + δ⁴/24 and
/// sin δ ≈ δ − δ³/6. Points farther than kMaxDlatRad in latitude or
/// kMaxDlonRad in longitude from the reference, and every point when the
/// pole lies within kMaxDlatRad of the reference (ρ′ is 0·∞ at the pole and
/// ill-conditioned next to it), get forward()'s value bit for bit.
class PolarStereo::Local {
 public:
  /// The radius. The photons of a 20 m geolocation segment on the
  /// simulated Ross Sea tracks lie within about 4e-6 rad of latitude and
  /// 1.5e-5 rad of longitude of its first photon; at the edge the
  /// truncation error is below 1e-9 m.
  static constexpr double kMaxDlatRad = 1e-5;
  static constexpr double kMaxDlonRad = 1e-4;

  /// Throws std::invalid_argument for a point in the opposite hemisphere.
  Xy forward(const LonLat& ll) const;

 private:
  friend class PolarStereo;
  explicit Local(const PolarStereo& proj) : proj_(proj) {}

  PolarStereo proj_;  // the fallback
  double phi_ = 0.0;   // the reference's φ and λ − λ0 [rad], north aspect
  double dlam_ = 0.0;
  double rho_ = 0.0;         // ρ at the reference
  double drho_ = 0.0;        // ρ′
  double half_d2rho_ = 0.0;  // ρ″ / 2
  double sin_ = 0.0;         // sine and cosine of dlam_
  double cos_ = 1.0;
  bool expand_ = false;  // false near the pole: every point takes forward()
};

}  // namespace is2::geo
