#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace is2::nn {

void softmax_rows(const Mat& logits, Mat& probs) {
  // Single-traversal online softmax: max, exp and sum are maintained in one
  // pass over the row. When a new maximum appears, the entries already
  // written are recomputed as exp(z - new_max) from the original logits —
  // not rescaled by a multiplicative correction — so after the pass every
  // p[c] equals exp(z[c] - final_max) exactly and the sum accumulates in
  // index order, both identical to softmax_rows_reference bit for bit
  // (verified in test_nn_core). Max updates are rare (expected O(log n) for
  // exchangeable inputs, once for a front-loaded max), so the common case
  // really is one traversal instead of three.
  probs.resize(logits.rows(), logits.cols());
  const std::size_t n = logits.cols();
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* z = logits.row(r);
    float* p = probs.row(r);
    float zmax = z[0];
    float sum = 0.0f;
    for (std::size_t c = 0; c < n; ++c) {
      if (z[c] > zmax) {
        zmax = z[c];
        sum = 0.0f;
        for (std::size_t j = 0; j < c; ++j) {
          p[j] = std::exp(z[j] - zmax);
          sum += p[j];
        }
      }
      p[c] = std::exp(z[c] - zmax);
      sum += p[c];
    }
    for (std::size_t c = 0; c < n; ++c) p[c] /= sum;
  }
}

void softmax_rows_reference(const Mat& logits, Mat& probs) {
  probs.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* z = logits.row(r);
    float* p = probs.row(r);
    float zmax = z[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) zmax = std::max(zmax, z[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      p[c] = std::exp(z[c] - zmax);
      sum += p[c];
    }
    for (std::size_t c = 0; c < logits.cols(); ++c) p[c] /= sum;
  }
}

FocalLoss::FocalLoss(double gamma, std::array<double, atl03::kNumClasses> alpha)
    : gamma_(gamma), alpha_(alpha) {}

std::array<double, atl03::kNumClasses> FocalLoss::balanced_alpha(
    const std::vector<std::uint8_t>& labels) {
  std::array<double, atl03::kNumClasses> counts{};
  for (auto y : labels)
    if (y < atl03::kNumClasses) counts[y] += 1.0;
  std::array<double, atl03::kNumClasses> alpha{};
  double mean_inv = 0.0;
  for (int c = 0; c < atl03::kNumClasses; ++c) {
    alpha[c] = 1.0 / std::max(counts[c], 1.0);
    mean_inv += alpha[c];
  }
  mean_inv /= atl03::kNumClasses;
  for (auto& a : alpha) a /= mean_inv;  // normalize to mean 1
  return alpha;
}

double FocalLoss::compute(const Mat& logits, const std::vector<std::uint8_t>& labels,
                          Mat& grad) const {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("FocalLoss: label count mismatch");
  if (logits.cols() != atl03::kNumClasses)
    throw std::invalid_argument("FocalLoss: expected kNumClasses logits");
  Mat probs;
  softmax_rows(logits, probs);
  grad.resize(logits.rows(), logits.cols());
  double loss = 0.0;
  const auto inv_n = 1.0 / static_cast<double>(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const std::uint8_t y = labels[r];
    const float* p = probs.row(r);
    float* g = grad.row(r);
    const double pt = std::max(static_cast<double>(p[y]), 1e-12);
    const double a = alpha_[y];
    const double one_m = 1.0 - pt;
    const double pow_g = std::pow(one_m, gamma_);
    loss += -a * pow_g * std::log(pt);

    // dL/dp_t, then chain through softmax: dp_t/dz_c = p_t(delta - p_c).
    // The focal term is 0 at gamma = 0 and tends to 0 as p_t -> 1. Both are
    // taken as 0 outright: at p_t = 1 with gamma < 1, pow(0, gamma - 1) is
    // infinite and the product would be 0 * inf = NaN.
    const double focal = gamma_ == 0.0 || one_m == 0.0
                             ? 0.0
                             : gamma_ * std::pow(one_m, gamma_ - 1.0) * std::log(pt);
    const double dL_dpt = -a * (pow_g / pt - focal);
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double dpt_dzc = pt * ((c == y ? 1.0 : 0.0) - p[c]);
      g[c] = static_cast<float>(dL_dpt * dpt_dzc * inv_n);
    }
  }
  return loss * inv_n;
}

}  // namespace is2::nn
