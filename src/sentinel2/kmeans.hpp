// Lloyd's k-means with k-means++ seeding, used by the color-based
// segmentation to find the water / thin-ice / thick-ice brightness clusters.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace is2::s2 {

struct KMeansResult {
  std::vector<float> centroids;       ///< k * dim, row-major
  std::vector<std::uint32_t> labels;  ///< per input point
  double inertia = 0.0;               ///< sum of squared distances to centroids
  int iterations = 0;
};

/// Cluster `n` points of dimension `dim` stored row-major in `points`.
/// Deterministic given the seed.
KMeansResult kmeans(const std::vector<float>& points, std::size_t dim, std::size_t k,
                    util::Rng rng, int max_iters = 50, double tol = 1e-4);

/// Assign arbitrary points to the nearest centroid from a previous run.
std::vector<std::uint32_t> kmeans_assign(const std::vector<float>& points, std::size_t dim,
                                         const std::vector<float>& centroids);

}  // namespace is2::s2
