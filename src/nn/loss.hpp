// Classification losses over logits. Softmax is fused into the loss for
// numerical stability. Focal loss (Lin et al. 2017) is the paper's choice:
// the Ross Sea is overwhelmingly thick ice, so cross-entropy would let the
// model coast on the majority class; focal loss down-weights easy examples
// and per-class alpha re-weights the rare thin-ice/open-water classes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "atl03/types.hpp"
#include "nn/tensor.hpp"

namespace is2::nn {

/// Softmax focal loss with per-class alpha. With gamma = 0 and unit alpha
/// it is softmax cross-entropy.
class FocalLoss {
 public:
  explicit FocalLoss(double gamma = 2.0,
                     std::array<double, atl03::kNumClasses> alpha = {1.0, 1.0, 1.0});

  /// Mean loss over the batch; fills grad (dL/dlogits, same shape).
  double compute(const Mat& logits, const std::vector<std::uint8_t>& labels, Mat& grad) const;

  /// Alpha from inverse class frequency, normalized to mean 1.
  static std::array<double, atl03::kNumClasses> balanced_alpha(
      const std::vector<std::uint8_t>& labels);

 private:
  double gamma_;
  std::array<double, atl03::kNumClasses> alpha_;
};

/// Row-wise softmax, single-traversal online form (max/exp/sum maintained in
/// one pass; exact recompute on a new running max keeps it bit-identical to
/// the three-pass reference).
void softmax_rows(const Mat& logits, Mat& probs);

/// The original three-pass implementation, kept as the bit-stability oracle
/// for test_nn_core.
void softmax_rows_reference(const Mat& logits, Mat& probs);

}  // namespace is2::nn
