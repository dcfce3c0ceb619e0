#include "sentinel2/scene_sim.hpp"

#include <algorithm>
#include <cmath>

#include "atl03/noise.hpp"
#include "util/rng.hpp"

namespace is2::s2 {

using atl03::SurfaceClass;
using atl03::SurfaceSample;

namespace {

/// Per-class band spectra at unit reflectance scale. Snow-covered ice is
/// bright and flat across VIS with a slight NIR rolloff; thin ice is
/// grey-blue; open water is dark with a blue tint and almost no NIR return.
struct Spectrum {
  float b02, b03, b04, b08;
};

Spectrum class_spectrum(SurfaceClass c) {
  switch (c) {
    case SurfaceClass::ThickIce: return {1.00f, 1.00f, 0.98f, 0.90f};
    case SurfaceClass::ThinIce: return {1.05f, 1.00f, 0.88f, 0.55f};
    case SurfaceClass::OpenWater: return {1.25f, 1.00f, 0.70f, 0.25f};
    default: return {0.0f, 0.0f, 0.0f, 0.0f};
  }
}

}  // namespace

SceneSimulator::SceneSimulator(const SceneConfig& config, std::uint64_t seed)
    : config_(config), seed_(seed) {}

Scene SceneSimulator::render(const atl03::SurfaceModel& surface, geo::Xy drift,
                             double acquisition_time) const {
  const auto& cfg = config_;
  const geo::GroundTrack& track = surface.track();

  // Raster extent: an axis-aligned bounding box of the track corridor.
  const geo::Xy a = track.at(0.0);
  const geo::Xy b = track.at(surface.length());
  const double half = cfg.cross_track_halfwidth_m + cfg.margin_m;
  const double xmin = std::min(a.x, b.x) - half;
  const double xmax = std::max(a.x, b.x) + half;
  const double ymin = std::min(a.y, b.y) - half;
  const double ymax = std::max(a.y, b.y) + half;

  GeoTransform gt;
  gt.x0 = xmin;
  gt.y0 = ymax;
  gt.pixel = cfg.pixel_m;
  const auto cols = static_cast<std::size_t>((xmax - xmin) / cfg.pixel_m) + 1;
  const auto rows = static_cast<std::size_t>((ymax - ymin) / cfg.pixel_m) + 1;

  Scene scene{MultispectralImage(rows, cols, gt), ClassRaster(rows, cols, gt),
              std::vector<float>(rows * cols, 0.0f), std::vector<std::uint8_t>(rows * cols, 0),
              drift, acquisition_time};

  // Cloud field: thresholded fractal noise. The threshold is chosen from the
  // target cover fraction assuming fbm2d is roughly uniform in [-1, 1].
  const double cloud_threshold = 1.0 - 2.0 * cfg.cloud_cover;
  const std::uint64_t cloud_seed = seed_ ^ 0xC10DD5ull;
  // Thick-cloud cores are the highest-noise parts of each cloud.
  const double thick_threshold =
      cloud_threshold + (1.0 - cloud_threshold) * cfg.thin_cloud_fraction;

  const util::Rng rng =
      util::Rng(seed_ ^ 0x5CE11Eull).fork(static_cast<std::uint64_t>(acquisition_time * 7.0));
  for (std::size_t r = 0; r < rows; ++r) {
    // Per-row noise stream: a row's pixels depend only on the seed, the
    // acquisition time and the row index.
    util::Rng row_rng = rng.fork(static_cast<std::uint64_t>(r) * 0x9E37ull + 0x11);
    for (std::size_t c = 0; c < cols; ++c) {
      const geo::Xy p = gt.pixel_center(r, c);
      // Surface feature that sits at pixel p at S2 time was at p - drift at
      // IS2 time; the surface model is defined at IS2 time.
      const geo::Xy p_is2 = {p.x - drift.x, p.y - drift.y};
      const SurfaceSample surf = surface.sample_xy(p_is2);
      const std::size_t idx = r * cols + c;

      scene.truth_class.set(r, c, surf.cls);
      if (surf.cls == SurfaceClass::Unknown) continue;

      const Spectrum spec = class_spectrum(surf.cls);
      float v[4] = {static_cast<float>(surf.reflectance * spec.b02),
                    static_cast<float>(surf.reflectance * spec.b03),
                    static_cast<float>(surf.reflectance * spec.b04),
                    static_cast<float>(surf.reflectance * spec.b08)};

      // Clouds (defined in S2-time coordinates — clouds do not drift with
      // the ice).
      const double cloud_noise = atl03::fbm2d(p.x, p.y, cfg.cloud_scale_m, cloud_seed);
      double tau = 0.0;
      if (cloud_noise > cloud_threshold) {
        const bool thick = cloud_noise > thick_threshold;
        tau = thick ? 3.0 + 4.0 * (cloud_noise - thick_threshold) / 0.2
                    : 1.2 * (cloud_noise - cloud_threshold) /
                          std::max(thick_threshold - cloud_threshold, 1e-6);
        const double alpha = 1.0 - std::exp(-tau);
        const float cloud_brightness = 0.92f;
        for (float& band : v)
          band = static_cast<float>(band * (1.0 - alpha) + cloud_brightness * alpha);
      }
      scene.cloud_tau[idx] = static_cast<float>(tau);

      // Cloud shadow: the cloud field displaced by the sun vector darkens
      // the surface. Thin clouds throw faint shadows, thick ones strong.
      // A pixel already under opaque cloud shows the cloud top, not the
      // shadowed surface, so it is exempt.
      const double shadow_noise =
          atl03::fbm2d(p.x + cfg.shadow_offset_x_m, p.y + cfg.shadow_offset_y_m,
                       cfg.cloud_scale_m, cloud_seed);
      if (tau < 1.5 && shadow_noise > cloud_threshold) {
        const double stau = shadow_noise > thick_threshold ? 3.0 : 1.0;
        const double dim = 1.0 - 0.45 * (1.0 - std::exp(-stau));
        for (float& band : v) band = static_cast<float>(band * dim);
        scene.shadow_mask[idx] = 1;
      }

      // Sensor noise.
      for (float& band : v)
        band = static_cast<float>(
            std::clamp(band + cfg.noise_sigma * row_rng.normal(), 0.0, 1.5));

      scene.image.at(Band::B02, r, c) = v[0];
      scene.image.at(Band::B03, r, c) = v[1];
      scene.image.at(Band::B04, r, c) = v[2];
      scene.image.at(Band::B08, r, c) = v[3];
    }
  }
  return scene;
}

}  // namespace is2::s2
