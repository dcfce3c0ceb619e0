#include "sentinel2/segmentation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sentinel2/kmeans.hpp"
#include "util/stats.hpp"

namespace is2::s2 {

using atl03::SurfaceClass;

namespace {

struct Corrected {
  // Corrected band values used for clustering.
  std::vector<float> b02, b04, b08;
  std::vector<std::uint8_t> thick_cloud;
  std::size_t thin_corrected = 0;
  std::size_t shadow_corrected = 0;
};

Corrected correct_bands(const MultispectralImage& img, const SegmentationConfig& cfg) {
  const std::size_t rows = img.rows(), cols = img.cols(), n = rows * cols;
  Corrected out;
  out.b02.resize(n);
  out.b04.resize(n);
  out.b08.resize(n);
  out.thick_cloud.assign(n, 0);

  // Pass 1: brightness map + cloud handling.
  std::vector<float> brightness(n);
  std::size_t thin_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = i / cols, c = i % cols;
    float b02 = img.at(Band::B02, r, c);
    const float b03 = img.at(Band::B03, r, c);
    float b04 = img.at(Band::B04, r, c);
    float b08 = img.at(Band::B08, r, c);

    const double vis = (b02 + b03 + b04) / 3.0;
    const double nir_ratio = vis > 1e-4 ? b08 / vis : 0.0;

    if (nir_ratio > cfg.cloud_nir_ratio && vis > cfg.cloud_brightness) {
      out.thick_cloud[i] = 1;  // opaque cloud: no surface signal to recover
    } else if (nir_ratio > cfg.ice_nir_ratio && vis > 0.15) {
      // Thin-cloud inversion: pixel = (1-a)*surface + a*cloud. The NIR/VIS
      // ratio interpolates between the ice ratio and 1.0 with opacity, which
      // gives an estimate of a to unmix.
      const double denom = 1.0 - cfg.ice_nir_ratio;
      double alpha = (nir_ratio - cfg.ice_nir_ratio) / std::max(denom, 1e-6);
      alpha = std::clamp(alpha, 0.0, cfg.max_thin_alpha);
      if (alpha > 0.05) {
        const auto unmix = [&](float v) {
          return static_cast<float>(
              std::clamp((v - alpha * cfg.cloud_reflectance) / (1.0 - alpha), 0.0, 1.5));
        };
        b02 = unmix(b02);
        b04 = unmix(b04);
        b08 = unmix(b08);
        ++thin_count;
      }
    }
    out.b02[i] = b02;
    out.b04[i] = b04;
    out.b08[i] = b08;
    brightness[i] = static_cast<float>((b02 + b04) / 2.0);
  }
  out.thin_corrected = thin_count;

  // Pass 2: tile median brightness for shadow detection.
  const std::size_t t = cfg.tile_px;
  const std::size_t trows = (rows + t - 1) / t, tcols = (cols + t - 1) / t;
  std::vector<float> tile_median(trows * tcols, 0.0f);
  std::vector<double> vals;
  vals.reserve(t * t);
  for (std::size_t ti = 0; ti < trows * tcols; ++ti) {
    const std::size_t tr = ti / tcols, tc = ti % tcols;
    vals.clear();
    for (std::size_t r = tr * t; r < std::min((tr + 1) * t, rows); ++r)
      for (std::size_t c = tc * t; c < std::min((tc + 1) * t, cols); ++c)
        if (!out.thick_cloud[r * cols + c]) vals.push_back(brightness[r * cols + c]);
    tile_median[ti] = vals.empty() ? 0.0f : static_cast<float>(util::median(vals));
  }

  // Pass 3: shadow re-gaining.
  std::size_t shadow_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.thick_cloud[i]) continue;
    const std::size_t r = i / cols, c = i % cols;
    const float med = tile_median[(r / t) * tcols + (c / t)];
    if (med < cfg.shadow_tile_brightness) continue;  // dark neighborhoods are water, not shadow
    const double gain = med > 1e-4 ? brightness[i] / med : 1.0;
    if (gain < cfg.shadow_gain_lo || gain > cfg.shadow_gain_hi) continue;
    // Ice-like spectrum check: water under shadow stays blue-dominated.
    const double nir_ratio = out.b02[i] > 1e-4 ? out.b08[i] / out.b02[i] : 0.0;
    if (nir_ratio < 0.5) continue;
    const auto regain = [&](float v) { return static_cast<float>(std::min(v / gain, 1.5)); };
    out.b02[i] = regain(out.b02[i]);
    out.b04[i] = regain(out.b04[i]);
    out.b08[i] = regain(out.b08[i]);
    ++shadow_count;
  }
  out.shadow_corrected = shadow_count;
  return out;
}

}  // namespace

SegmentationResult segment(const MultispectralImage& image, const SegmentationConfig& cfg) {
  const std::size_t rows = image.rows(), cols = image.cols(), n = rows * cols;
  Corrected corr = correct_bands(image, cfg);

  // Subsample for clustering (deterministic stride + jitter).
  util::Rng rng(cfg.seed);
  const std::size_t target = std::min(cfg.kmeans_subsample, n);
  const std::size_t stride = std::max<std::size_t>(1, n / target);
  std::vector<float> sample;
  sample.reserve(3 * (n / stride + 1));
  for (std::size_t i = rng.uniform_int(0, static_cast<std::int64_t>(stride) - 1);
       i < n; i += stride) {
    if (corr.thick_cloud[i]) continue;
    sample.push_back(corr.b02[i]);
    sample.push_back(corr.b04[i]);
    sample.push_back(corr.b08[i]);
  }

  SegmentationResult result{ClassRaster(rows, cols, image.transform()), 0, corr.thin_corrected,
                            corr.shadow_corrected};

  if (sample.size() < 9) {
    // Degenerate scene (all cloud): everything stays Unknown.
    result.thick_cloud_pixels = n;
    return result;
  }

  const std::size_t k = std::min(cfg.kmeans_k, sample.size() / 3);
  KMeansResult km = kmeans(sample, 3, k, rng, cfg.kmeans_iters);

  // Map each centroid to a class by spectral signature. The NIR/VIS ratio is
  // ~0.9 for snow ice, ~0.5 for thin ice and ~0.2 for water, and survives
  // the multiplicative dimming of shadows that brightness ordering does not.
  std::vector<SurfaceClass> cluster_class(k);
  for (std::size_t c = 0; c < k; ++c) {
    const double b02 = km.centroids[c * 3 + 0];
    const double b04 = km.centroids[c * 3 + 1];
    const double b08 = km.centroids[c * 3 + 2];
    const double brightness = (b02 + b04) / 2.0;
    const double ratio = b02 > 1e-4 ? b08 / b02 : 0.0;
    if (brightness < cfg.water_brightness_max || ratio < cfg.water_ratio_max)
      cluster_class[c] = SurfaceClass::OpenWater;
    else if (ratio < cfg.thin_ratio_max)
      cluster_class[c] = SurfaceClass::ThinIce;
    else
      cluster_class[c] = SurfaceClass::ThickIce;
  }

  // Assign every pixel.
  std::size_t cloud_pixels = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = i / cols, c = i % cols;
    if (corr.thick_cloud[i]) {
      result.labels.set(r, c, SurfaceClass::Unknown);
      ++cloud_pixels;
      continue;
    }
    const float p[3] = {corr.b02[i], corr.b04[i], corr.b08[i]};
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_c = 0;
    for (std::size_t kc = 0; kc < k; ++kc) {
      double d = 0.0;
      for (int dI = 0; dI < 3; ++dI) {
        const double diff = p[dI] - km.centroids[kc * 3 + dI];
        d += diff * diff;
      }
      if (d < best) {
        best = d;
        best_c = kc;
      }
    }
    result.labels.set(r, c, cluster_class[best_c]);
  }
  result.thick_cloud_pixels = cloud_pixels;
  return result;
}

SegmentationScore score_segmentation(const ClassRaster& prediction, const ClassRaster& truth) {
  SegmentationScore score;
  if (prediction.rows() != truth.rows() || prediction.cols() != truth.cols())
    throw std::invalid_argument("score_segmentation: raster size mismatch");
  std::size_t correct = 0;
  for (std::size_t r = 0; r < prediction.rows(); ++r) {
    for (std::size_t c = 0; c < prediction.cols(); ++c) {
      const SurfaceClass p = prediction.at(r, c);
      const SurfaceClass t = truth.at(r, c);
      if (p == SurfaceClass::Unknown || t == SurfaceClass::Unknown) continue;
      ++score.evaluated;
      ++score.confusion[static_cast<int>(t)][static_cast<int>(p)];
      if (p == t) ++correct;
    }
  }
  score.accuracy =
      score.evaluated ? static_cast<double>(correct) / static_cast<double>(score.evaluated) : 0.0;
  return score;
}

}  // namespace is2::s2
