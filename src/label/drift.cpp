#include "label/drift.hpp"

#include <cmath>
#include <cstdio>

#include "geo/wgs84.hpp"
#include "label/overlay.hpp"

namespace is2::label {

using atl03::SurfaceClass;

namespace {

/// Consistency between a segment's relative elevation and an S2 class:
/// +1 for physically consistent, -1 for contradiction, 0 for ambiguous.
double consistency(double h_rel, SurfaceClass s2_class, const DriftConfig& cfg) {
  switch (s2_class) {
    case SurfaceClass::OpenWater:
      if (h_rel < cfg.water_threshold_m) return 1.0;
      if (h_rel > cfg.thick_threshold_m) return -1.0;
      return 0.0;
    case SurfaceClass::ThickIce:
      if (h_rel > cfg.thick_threshold_m) return 1.0;
      if (h_rel < cfg.water_threshold_m) return -1.0;
      return 0.0;
    case SurfaceClass::ThinIce:
      // Thin ice sits between the thresholds; weak evidence either way.
      return (h_rel >= 0.0 && h_rel <= cfg.thick_threshold_m) ? 0.5 : -0.5;
    default:
      return 0.0;
  }
}

double score_shift(const s2::ClassRaster& raster, const std::vector<resample::Segment>& segments,
                   const std::vector<double>& baseline, std::size_t stride, const geo::Xy& shift,
                   const DriftConfig& cfg) {
  OverlayConfig ov;
  ov.shift = shift;
  ov.vote_radius_px = 0;  // single-pixel sampling keeps the search sharp
  double score = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < segments.size(); i += stride) {
    const auto& seg = segments[i];
    const SurfaceClass c = sample_label(raster, {seg.x, seg.y}, ov);
    if (c == SurfaceClass::Unknown) continue;
    score += consistency(seg.h_mean - baseline[i], c, cfg);
    ++used;
  }
  return used ? score / static_cast<double>(used) : -1.0;
}

}  // namespace

DriftEstimate estimate_drift(const s2::ClassRaster& raster,
                             const std::vector<resample::Segment>& segments,
                             const std::vector<double>& baseline, const DriftConfig& cfg) {
  DriftEstimate best;
  if (segments.empty() || baseline.size() != segments.size()) return best;
  const std::size_t stride = std::max<std::size_t>(1, segments.size() / cfg.max_segments);

  best.score_unshifted = score_shift(raster, segments, baseline, stride, {0.0, 0.0}, cfg);
  best.score = best.score_unshifted;
  best.shift = {0.0, 0.0};

  const int n_radii = static_cast<int>(cfg.max_shift_m / cfg.step_m);
  // Polar grid search in (direction, radius) order: the first strict
  // maximum wins, so ties resolve the same way on every run.
  for (int d = 0; d < cfg.directions; ++d) {
    const double theta = 2.0 * geo::pi * static_cast<double>(d) / cfg.directions;
    for (int r = 1; r <= n_radii; ++r) {
      const double dist = static_cast<double>(r) * cfg.step_m;
      const geo::Xy shift{dist * std::cos(theta), dist * std::sin(theta)};
      const double sc = score_shift(raster, segments, baseline, stride, shift, cfg);
      if (sc > best.score) {
        best.score = sc;
        best.shift = shift;
      }
    }
  }
  return best;
}

std::string describe_shift(const geo::Xy& shift) {
  const double dist = std::hypot(shift.x, shift.y);
  if (dist < 1.0) return "0 m";
  // Projected +y is grid north here (scene rasters are north-up in EPSG:3976).
  static const char* names[8] = {"E", "NE", "N", "NW", "W", "SW", "S", "SE"};
  double angle = std::atan2(shift.y, shift.x);  // 0 = E, pi/2 = N
  if (angle < 0.0) angle += 2.0 * geo::pi;
  const int sector = static_cast<int>(std::floor(angle / (geo::pi / 4.0) + 0.5)) % 8;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f m / %s", dist, names[sector]);
  return buf;
}

}  // namespace is2::label
