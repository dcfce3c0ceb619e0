// Adam over Param views. Step order is deterministic (parameter list
// order), which the distributed trainer relies on for replica consistency.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"

namespace is2::nn {

/// Adam (Kingma & Ba 2015); the paper uses lr = 0.003.
class Adam {
 public:
  explicit Adam(double lr = 0.003, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-7);
  /// Apply accumulated gradients and zero them.
  void step(const std::vector<Param>& params);
  void zero_grad(const std::vector<Param>& params);

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  // Moment buffers keyed by position in the param list (stable across steps).
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace is2::nn
