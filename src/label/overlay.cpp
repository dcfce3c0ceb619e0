#include "label/overlay.hpp"

#include <array>

namespace is2::label {

using atl03::SurfaceClass;

SurfaceClass sample_label(const s2::ClassRaster& raster, const geo::Xy& position,
                          const OverlayConfig& config) {
  const geo::Xy p{position.x + config.shift.x, position.y + config.shift.y};
  std::size_t row, col;
  if (!raster.transform().world_to_pixel(p, raster.rows(), raster.cols(), row, col))
    return SurfaceClass::Unknown;

  if (config.vote_radius_px <= 0) return raster.at(row, col);

  std::array<int, 3> votes{0, 0, 0};
  const int r0 = static_cast<int>(row), c0 = static_cast<int>(col);
  const int rad = config.vote_radius_px;
  for (int dr = -rad; dr <= rad; ++dr) {
    for (int dc = -rad; dc <= rad; ++dc) {
      const int r = r0 + dr, c = c0 + dc;
      if (r < 0 || c < 0 || r >= static_cast<int>(raster.rows()) ||
          c >= static_cast<int>(raster.cols()))
        continue;
      const SurfaceClass v = raster.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      if (v == SurfaceClass::Unknown) continue;
      ++votes[static_cast<int>(v)];
    }
  }
  // The center pixel must itself be usable; a cloud-masked center stays
  // Unknown even if neighbors vote (mirrors the paper's cloud mislabeling
  // that manual correction later has to handle).
  if (raster.at(row, col) == SurfaceClass::Unknown) return SurfaceClass::Unknown;
  int best = 0;
  for (int c = 1; c < 3; ++c)
    if (votes[c] > votes[best]) best = c;
  if (votes[best] == 0) return SurfaceClass::Unknown;
  return static_cast<SurfaceClass>(best);
}

std::vector<SurfaceClass> overlay_labels(const s2::ClassRaster& raster,
                                         const std::vector<resample::Segment>& segments,
                                         const OverlayConfig& config) {
  std::vector<SurfaceClass> out(segments.size(), SurfaceClass::Unknown);
  for (std::size_t i = 0; i < segments.size(); ++i)
    out[i] = sample_label(raster, {segments[i].x, segments[i].y}, config);
  return out;
}

}  // namespace is2::label
