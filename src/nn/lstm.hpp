// LSTM front end (Hochreiter & Schmidhuber 1997), configured as in the
// paper: 16 units, ELU cell activation, input dropout 0.2, consuming the
// 5-step x 6-feature segment sequences and emitting the final hidden state.
// Full backpropagation-through-time; gate order in the fused weight matrices
// is [i, f, g, o] (Keras convention).
#pragma once

#include "nn/layers.hpp"

namespace is2::nn {

class Lstm : public FrontEnd {
 public:
  /// `activation` applies to the candidate cell and the cell output
  /// (Keras `activation=`); gates always use sigmoid.
  Lstm(std::size_t input_dim, std::size_t units, Activation activation, double input_dropout,
       util::Rng& rng);

  const Mat& forward(const Tensor3& x, bool training) override;
  void backward(const Mat& grad_out) override;
  std::vector<Param> params() override;

 private:
  std::size_t input_dim_;
  std::size_t units_;
  Activation act_;
  double dropout_;
  util::Rng dropout_rng_;

  Mat wx_;  // [4U, D]   input weights, gates stacked [i f g o]
  Mat wh_;  // [4U, U]   recurrent weights
  Mat b_;   // [1, 4U]
  Mat dwx_, dwh_, db_;

  // Per-step caches for BPTT (filled by training-mode forward only; the
  // inference path clears them and uses the rolling scratch below).
  std::size_t steps_ = 0;
  std::vector<Mat> xs_;      // dropped-out inputs per step [B, D]
  std::vector<Mat> gates_;   // activated gates per step [B, 4U]
  std::vector<Mat> cs_;      // cell states per step [B, U]
  std::vector<Mat> c_acts_;  // act(c_t) per step
  std::vector<Mat> hs_;      // hidden states per step (hs_[t] = output of step t)
  Mat h_out_;                // final hidden state (forward return)

  // Inference scratch, reused across calls (no per-call allocation at a
  // steady batch shape): gate pre-activations, the current timestep's
  // input slice, and double-buffered cell/hidden state.
  Mat z_scratch_;
  Mat x_scratch_;
  Mat c_roll_[2];
  Mat h_roll_[2];
  /// Weight transposes cached across forward calls; rebuilt when the dirty
  /// flag is set (params() handed out mutable views / backward ran) or when
  /// the weights no longer memcmp-match the snapshots the cache was built
  /// from (sound against mutation through retained Param views). The check
  /// is a sequential streaming pass, far cheaper than the two strided
  /// transposes it avoids; results are bit-identical either way.
  Mat wxt_, wht_;
  Mat wx_src_, wh_src_;  ///< weight snapshots at cache build time
  bool wt_dirty_ = true;

  /// Refresh wxt_/wht_ if stale (shared by both forward paths).
  void refresh_weight_transposes();
};

}  // namespace is2::nn
