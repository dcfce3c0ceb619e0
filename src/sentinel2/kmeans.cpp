#include "sentinel2/kmeans.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace is2::s2 {

namespace {

double sq_dist(const float* a, const float* b, std::size_t dim) {
  double d = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    d += diff * diff;
  }
  return d;
}

}  // namespace

KMeansResult kmeans(const std::vector<float>& points, std::size_t dim, std::size_t k,
                    util::Rng rng, int max_iters, double tol) {
  if (dim == 0 || points.size() % dim != 0)
    throw std::invalid_argument("kmeans: points size not a multiple of dim");
  const std::size_t n = points.size() / dim;
  if (k == 0 || n < k) throw std::invalid_argument("kmeans: need at least k points");

  KMeansResult res;
  res.centroids.resize(k * dim);
  res.labels.assign(n, 0);

  // k-means++ seeding.
  std::vector<double> min_d(n, std::numeric_limits<double>::infinity());
  {
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    for (std::size_t d = 0; d < dim; ++d) res.centroids[d] = points[first * dim + d];
    for (std::size_t c = 1; c < k; ++c) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d = sq_dist(&points[i * dim], &res.centroids[(c - 1) * dim], dim);
        min_d[i] = std::min(min_d[i], d);
        total += min_d[i];
      }
      double r = rng.uniform() * total;
      std::size_t chosen = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        r -= min_d[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
      for (std::size_t d = 0; d < dim; ++d)
        res.centroids[c * dim + d] = points[chosen * dim + d];
    }
  }

  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  for (int iter = 0; iter < max_iters; ++iter) {
    res.iterations = iter + 1;
    // Assignment. The inertia sums each point's best distance in index
    // order, so the float result is fixed by the code.
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = sq_dist(&points[i * dim], &res.centroids[c * dim], dim);
        if (d < best) {
          best = d;
          best_c = static_cast<std::uint32_t>(c);
        }
      }
      res.labels[i] = best_c;
      inertia += best;
    }

    // Update.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = res.labels[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) sums[c * dim + d] += points[i * dim + d];
    }
    double shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      for (std::size_t d = 0; d < dim; ++d) {
        const auto nv = static_cast<float>(sums[c * dim + d] / static_cast<double>(counts[c]));
        shift += std::abs(nv - res.centroids[c * dim + d]);
        res.centroids[c * dim + d] = nv;
      }
    }
    res.inertia = inertia;
    if (shift < tol) break;
  }
  return res;
}

std::vector<std::uint32_t> kmeans_assign(const std::vector<float>& points, std::size_t dim,
                                         const std::vector<float>& centroids) {
  if (dim == 0 || points.size() % dim != 0 || centroids.size() % dim != 0)
    throw std::invalid_argument("kmeans_assign: bad dimensions");
  const std::size_t n = points.size() / dim;
  const std::size_t k = centroids.size() / dim;
  std::vector<std::uint32_t> labels(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      const double d = sq_dist(&points[i * dim], &centroids[c * dim], dim);
      if (d < best) {
        best = d;
        labels[i] = static_cast<std::uint32_t>(c);
      }
    }
  }
  return labels;
}

}  // namespace is2::s2
