#include "geo/polar_stereo.hpp"

#include <cmath>
#include <stdexcept>

#include "geo/wgs84.hpp"

namespace is2::geo {

PolarStereo::PolarStereo(Hemisphere hemisphere, double lat_ts_deg, double lon0_deg)
    : hemisphere_(hemisphere), lon0_rad_(deg2rad(lon0_deg)), e_(std::sqrt(Wgs84::e2)) {
  // Work in the north aspect internally; the south aspect negates inputs and
  // outputs (Snyder p.161). The standard parallel is converted accordingly.
  const double lat_c = hemisphere_ == Hemisphere::South ? -lat_ts_deg : lat_ts_deg;
  if (lat_c <= 0.0 || lat_c > 90.0)
    throw std::invalid_argument("PolarStereo: standard parallel must be in the chosen hemisphere");
  const double phi_c = deg2rad(lat_c);
  t_c_ = t_of_lat(phi_c);
  const double s = std::sin(phi_c);
  m_c_ = std::cos(phi_c) / std::sqrt(1.0 - Wgs84::e2 * s * s);
}

PolarStereo PolarStereo::epsg3976() { return PolarStereo(Hemisphere::South, -70.0, 0.0); }

PolarStereo PolarStereo::epsg3413() { return PolarStereo(Hemisphere::North, 70.0, -45.0); }

double PolarStereo::t_of_lat(double lat_rad) const {
  // Snyder eq. 15-9.
  const double s = std::sin(lat_rad);
  return std::tan(pi / 4.0 - lat_rad / 2.0) /
         std::pow((1.0 - e_ * s) / (1.0 + e_ * s), e_ / 2.0);
}

Xy PolarStereo::forward(const LonLat& ll) const {
  const bool south = hemisphere_ == Hemisphere::South;
  const double phi = deg2rad(south ? -ll.lat : ll.lat);
  const double lam = deg2rad(south ? -ll.lon : ll.lon);
  const double lam0 = south ? -lon0_rad_ : lon0_rad_;
  if (phi < 0.0)
    throw std::invalid_argument("PolarStereo::forward: point in the opposite hemisphere");

  const double t = t_of_lat(phi);
  const double rho = Wgs84::a * m_c_ * t / t_c_;  // Snyder 21-34
  const double dlam = lam - lam0;
  double x = rho * std::sin(dlam);   // Snyder 21-30
  double y = -rho * std::cos(dlam);  // Snyder 21-31
  if (south) {
    x = -x;
    y = -y;
  }
  return {x, y};
}

PolarStereo::Local PolarStereo::local(const LonLat& ref) const {
  const bool south = hemisphere_ == Hemisphere::South;
  Local l(*this);
  l.phi_ = deg2rad(south ? -ref.lat : ref.lat);
  l.dlam_ = deg2rad(south ? -ref.lon : ref.lon) - (south ? -lon0_rad_ : lon0_rad_);
  if (l.phi_ < 0.0)
    throw std::invalid_argument("PolarStereo::local: reference in the opposite hemisphere");
  // At the pole ρ = 0 and g is infinite; within the radius of it the
  // expansion would reach across.
  l.expand_ = pi / 2.0 - l.phi_ > Local::kMaxDlatRad;
  if (!l.expand_) return l;

  l.sin_ = std::sin(l.dlam_);
  l.cos_ = std::cos(l.dlam_);
  l.rho_ = Wgs84::a * m_c_ * t_of_lat(l.phi_) / t_c_;  // as forward() has it
  const double e2 = Wgs84::e2;
  const double s = std::sin(l.phi_);
  const double d = 1.0 - e2 * s * s;
  const double g = (1.0 - e2) / (d * std::cos(l.phi_));
  l.drho_ = -l.rho_ * g;
  // g² − g′ with g′ = g tan φ (2e²cos²φ + d) / d, in the form that cancels
  // nothing: (1−e²)(1 − e²(1 + 3s + 3s²)) / (d²(1 + s)).
  l.half_d2rho_ =
      0.5 * l.rho_ * (1.0 - e2) * (1.0 - e2 * (1.0 + 3.0 * s + 3.0 * s * s)) / (d * d * (1.0 + s));
  return l;
}

Xy PolarStereo::Local::forward(const LonLat& ll) const {
  const bool south = proj_.hemisphere_ == Hemisphere::South;
  // φ and λ − λ0 as forward() has them; near the reference their offsets
  // from its values are exact.
  const double phi = deg2rad(south ? -ll.lat : ll.lat);
  const double dlam =
      deg2rad(south ? -ll.lon : ll.lon) - (south ? -proj_.lon0_rad_ : proj_.lon0_rad_);
  if (phi < 0.0)
    throw std::invalid_argument("PolarStereo::Local::forward: point in the opposite hemisphere");
  const double dphi = phi - phi_;
  double delta = dlam - dlam_;
  if (delta > pi)
    delta -= 2.0 * pi;
  else if (delta <= -pi)
    delta += 2.0 * pi;
  // Written so that NaN offsets fail the test too.
  if (!expand_ || !(std::abs(dphi) <= kMaxDlatRad) || !(std::abs(delta) <= kMaxDlonRad))
    return proj_.forward(ll);

  const double rho = rho_ + (drho_ + half_d2rho_ * dphi) * dphi;
  const double delta2 = delta * delta;
  const double cos_m1 = delta2 * (-0.5 + delta2 / 24.0);  // cos δ − 1
  const double sin_d = delta * (1.0 - delta2 / 6.0);
  // sin and cos of the point's λ − λ0, as the reference's plus a small term.
  const double sin_lam = sin_ + (sin_ * cos_m1 + cos_ * sin_d);
  const double cos_lam = cos_ + (cos_ * cos_m1 - sin_ * sin_d);
  double x = rho * sin_lam;
  double y = -rho * cos_lam;
  if (south) {
    x = -x;
    y = -y;
  }
  return {x, y};
}

LonLat PolarStereo::inverse(const Xy& xy) const {
  const bool south = hemisphere_ == Hemisphere::South;
  const double x = south ? -xy.x : xy.x;
  const double y = south ? -xy.y : xy.y;
  const double lam0 = south ? -lon0_rad_ : lon0_rad_;

  const double rho = std::hypot(x, y);
  const double t = rho * t_c_ / (Wgs84::a * m_c_);  // Snyder 21-39
  // Conformal latitude, then the series expansion Snyder eq. 3-5.
  const double chi = pi / 2.0 - 2.0 * std::atan(t);
  const double e2 = Wgs84::e2;
  const double e4 = e2 * e2;
  const double e6 = e4 * e2;
  const double e8 = e6 * e2;
  const double phi =
      chi + (e2 / 2.0 + 5.0 * e4 / 24.0 + e6 / 12.0 + 13.0 * e8 / 360.0) * std::sin(2.0 * chi) +
      (7.0 * e4 / 48.0 + 29.0 * e6 / 240.0 + 811.0 * e8 / 11520.0) * std::sin(4.0 * chi) +
      (7.0 * e6 / 120.0 + 81.0 * e8 / 1120.0) * std::sin(6.0 * chi) +
      (4279.0 * e8 / 161280.0) * std::sin(8.0 * chi);
  const double lam = rho == 0.0 ? lam0 : lam0 + std::atan2(x, -y);  // Snyder 20-16

  double lat = rad2deg(phi);
  double lon = rad2deg(lam);
  if (south) {
    lat = -lat;
    lon = -lon;
  }
  // Normalize longitude to [-180, 180).
  while (lon >= 180.0) lon -= 360.0;
  while (lon < -180.0) lon += 360.0;
  return {lon, lat};
}

double PolarStereo::scale_factor(double lat_deg) const {
  const bool south = hemisphere_ == Hemisphere::South;
  const double phi = deg2rad(south ? -lat_deg : lat_deg);
  const double s = std::sin(phi);
  const double m = std::cos(phi) / std::sqrt(1.0 - Wgs84::e2 * s * s);
  if (m == 0.0) {
    // Scale at the pole: k0 = (m_c / t_c) * sqrt((1+e)^(1+e) (1-e)^(1-e)) / 2
    const double k0 = m_c_ / t_c_ *
                      std::sqrt(std::pow(1.0 + e_, 1.0 + e_) * std::pow(1.0 - e_, 1.0 - e_)) / 2.0;
    return k0;
  }
  const double t = t_of_lat(phi);
  return m_c_ * t / (t_c_ * m);
}

}  // namespace is2::geo
