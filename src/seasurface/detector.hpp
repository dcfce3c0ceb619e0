// Local sea surface detection from classified 2m segments (paper §III.D.1).
//
// Sliding windows of 10 km with 5 km overlap collect the open-water
// segments; four methods estimate the window's sea surface height:
//   (i)   MinElevation       — minimum open-water elevation,
//   (ii)  AverageElevation   — mean open-water elevation,
//   (iii) NearestMinElevation— minimum of the lead group nearest the window
//                              center,
//   (iv)  NasaEquation       — the ATL10 ATBD estimator: per-lead weighted
//         heights (eq. 2: w_i = exp(-((h_i - h_min)/sigma_i)^2)) combined
//         across leads by inverse variance (eq. 3).
// Windows without open water are linearly interpolated from the nearest
// resolved windows. The per-window points interpolate into a continuous
// profile h_ref(s) used by the freeboard stage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atl03/types.hpp"
#include "resample/segmenter.hpp"

namespace is2::seasurface {

enum class Method : std::uint8_t {
  MinElevation = 0,
  AverageElevation = 1,
  NearestMinElevation = 2,
  NasaEquation = 3,
};

/// Number of `Method` values (they run 0 .. kMethods - 1).
inline constexpr std::size_t kMethods = 4;
static_assert(static_cast<std::size_t>(Method::NasaEquation) + 1 == kMethods);

const char* method_name(Method m);

struct SeaSurfaceConfig {
  double window_m = 10'000.0;   ///< full window length (5 km radius)
  double stride_m = 5'000.0;    ///< window overlap = window - stride
  double lead_gap_m = 20.0;     ///< water segments closer than this join a lead
  double sigma_floor = 0.005;   ///< minimum per-segment height sigma [m]
  std::size_t min_lead_segments = 2;  ///< smaller water runs are noise
  /// Candidate screening (ATBD-style): water segments whose height sits more
  /// than `outlier_mad_k` robust sigmas from the window's water median are
  /// excluded — they are subsurface-scattering artifacts or mislabels, and
  /// the min-anchored estimators would otherwise latch onto them.
  double outlier_mad_k = 3.0;
};

struct SeaSurfacePoint {
  double s = 0.0;        ///< window center
  double h_ref = 0.0;    ///< estimated local sea surface height
  double sigma = 0.0;    ///< estimator uncertainty (method iv), else 0
  std::uint32_t n_leads = 0;
  std::uint32_t n_water_segments = 0;
  bool interpolated = false;  ///< no open water in window
};

/// Piecewise-linear sea surface profile h_ref(s).
class SeaSurfaceProfile {
 public:
  SeaSurfaceProfile() = default;
  explicit SeaSurfaceProfile(std::vector<SeaSurfacePoint> points);

  double at(double s) const;
  const std::vector<SeaSurfacePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  /// Fraction of windows that had to be interpolated.
  double interpolated_fraction() const;

 private:
  std::vector<SeaSurfacePoint> points_;
};

/// Detect the local sea surface over segments with per-segment class labels
/// (same length as segments; only OpenWater entries are used).
SeaSurfaceProfile detect_sea_surface(const std::vector<resample::Segment>& segments,
                                     const std::vector<atl03::SurfaceClass>& labels,
                                     Method method, const SeaSurfaceConfig& config = {});

}  // namespace is2::seasurface
