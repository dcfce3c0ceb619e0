// Layers of the classifier stack.
//
// A model is a front end (Flatten for the MLP, LSTM for the recurrent model)
// that maps a [batch, time, features] sequence tensor to a [batch, width]
// matrix, followed by a stack of Dense layers with fused activations.
// Layers own their parameters and gradient buffers; the optimizer consumes
// the Param views. All randomness flows through an explicit Rng so replicated
// models in the distributed trainer stay bit-identical across ranks.
//
// Forward contract: forward(x, training=true) caches everything backward()
// needs; forward(x, training=false) is the inference fast path — it runs the
// fused kernels, skips gradient caches and input copies, and reuses its
// output buffers across calls (zero allocation at steady batch shape).
// backward() after an inference-mode forward throws.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace is2::nn {

/// View of one parameter tensor and its gradient accumulator.
struct Param {
  std::string name;
  Mat* value = nullptr;
  Mat* grad = nullptr;
};

// Activation, activate(), activate_grad(), activate_grad_from_y() live in
// tensor.hpp (included above) so the fused GEMM epilogues can use them; the
// names are unchanged under is2::nn.

/// Fully connected y = x W^T + b with fused activation: [batch, in] ->
/// [batch, out].
///
/// The inference forward runs on a cached pre-transposed weight panel
/// (`wt_`), rebuilt only when the weights actually changed. Staleness is
/// detected soundly, not by convention: a dirty flag (set when a mutable
/// weight handle escapes via params()/weights() or a backward pass runs)
/// forces a rebuild, and on the flag-clean path a sequential memcmp against
/// the snapshot the cache was built from catches mutations made through
/// retained Param views (optimizers, finite-difference probes). The memcmp
/// is a linear streaming pass — far cheaper than the strided transpose it
/// avoids — and predictions are bit-identical to the transpose-per-call
/// path (same packed kernel, same panel values).
class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Activation act, util::Rng& rng);

  const Mat& forward(const Mat& x, bool training);
  /// Returns grad wrt input; accumulates parameter grads. Requires the
  /// preceding forward to have run with training=true.
  const Mat& backward(const Mat& grad_out);
  std::vector<Param> params();

  Mat& weights() {
    wt_dirty_ = true;  // mutable handle escapes: assume mutation
    return w_;
  }
  Mat& bias() { return b_; }  // bias is read directly, never cached

 private:
  Mat w_;   // [out, in]
  Mat b_;   // [1, out]
  Mat dw_;
  Mat db_;
  Activation act_;
  // caches (x_/z_ filled only by training-mode forward)
  Mat x_;       // input
  Mat z_;       // pre-activation
  Mat y_;       // output
  Mat dx_;
  // Pre-transposed weights cached across forward calls (wide layers only;
  // the narrow logits head never transposes), plus the weight snapshot the
  // cache was built from (memcmp'd to detect out-of-band mutation).
  Mat wt_;      // [in, out] = w_^T
  Mat wt_src_;  // copy of w_ at cache build time
  bool wt_dirty_ = true;
};

/// Sequence front end: [batch, time, feat] -> [batch, width].
class FrontEnd {
 public:
  virtual ~FrontEnd() = default;
  virtual const Mat& forward(const Tensor3& x, bool training) = 0;
  virtual void backward(const Mat& grad_out) = 0;
  virtual std::vector<Param> params() { return {}; }
};

/// Flatten front end (the MLP path): concatenates the time steps.
class Flatten : public FrontEnd {
 public:
  const Mat& forward(const Tensor3& x, bool training) override;
  void backward(const Mat& /*grad_out*/) override {}  // no trainable inputs upstream

 private:
  Mat y_;
};

/// He/Xavier-style uniform init bound used across layers.
float init_bound(std::size_t fan_in, std::size_t fan_out);

}  // namespace is2::nn
