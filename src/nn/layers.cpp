#include "nn/layers.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace is2::nn {

float init_bound(std::size_t fan_in, std::size_t fan_out) {
  // Glorot uniform, matching the Keras default the paper's models used.
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act, util::Rng& rng)
    : w_(out_dim, in_dim), b_(1, out_dim), dw_(out_dim, in_dim), db_(1, out_dim), act_(act) {
  const float bound = init_bound(in_dim, out_dim);
  for (std::size_t i = 0; i < w_.size(); ++i)
    w_.data()[i] = static_cast<float>(rng.uniform(-bound, bound));
}

const Mat& Dense::forward(const Mat& x, bool training) {
  if (training) {
    x_ = x;
    dense_forward_train(x, w_, b_, act_, z_, y_);
  } else {
    // Inference fast path: bias + activation fused into the GEMM epilogue,
    // no input copy, no pre-activation cache. Drop any stale training
    // caches so a later backward() fails loudly instead of using them.
    x_.resize(0, 0);
    z_.resize(0, 0);
    if (w_.rows() >= kDenseFusedColTile) {
      // Wide layer: the packed kernel wants W^T. Reuse the cached transpose
      // across calls; rebuild when the dirty flag is set or the weights no
      // longer match the snapshot the cache was built from (sound against
      // mutation through retained Param views). Bit-identical to
      // transposing per call — same panel values into the same kernel.
      const bool stale =
          wt_dirty_ || wt_src_.size() != w_.size() ||
          std::memcmp(wt_src_.data(), w_.data(), w_.size() * sizeof(float)) != 0;
      if (stale) {
        wt_src_ = w_;
        transpose(w_, wt_);
        wt_dirty_ = false;
      }
      dense_forward_pre(x, wt_, b_, act_, nullptr, y_);
    } else {
      // Narrow logits head: the lane-split row kernel reads w_ directly
      // (no transpose exists to cache).
      dense_forward_fused(x, w_, b_, act_, y_);
    }
  }
  return y_;
}

const Mat& Dense::backward(const Mat& grad_out) {
  if (x_.empty() || z_.empty())
    throw std::logic_error("Dense::backward: requires forward(x, training=true)");
  wt_dirty_ = true;  // an optimizer step will mutate w_ right after this
  if (grad_out.rows() != y_.rows() || grad_out.cols() != y_.cols())
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  // dz = dy * act'(z)
  Mat dz(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < dz.size(); ++i)
    dz.data()[i] = grad_out.data()[i] * activate_grad(act_, z_.data()[i], y_.data()[i]);

  gemm_tn(dz, x_, dw_, /*accumulate=*/true);  // dW += dz^T x
  for (std::size_t r = 0; r < dz.rows(); ++r) {
    const float* dzr = dz.row(r);
    for (std::size_t c = 0; c < dz.cols(); ++c) db_.at(0, c) += dzr[c];
  }
  dx_.resize(dz.rows(), w_.cols());
  gemm_nn(dz, w_, dx_);  // dx = dz W
  return dx_;
}

std::vector<Param> Dense::params() {
  wt_dirty_ = true;  // mutable views escape (optimizer steps, weight loads)
  return {{"w", &w_, &dw_}, {"b", &b_, &db_}};
}

const Mat& Flatten::forward(const Tensor3& x, bool training) {
  (void)training;
  y_.resize(x.n, x.sample_size());
  std::copy(x.v.begin(), x.v.end(), y_.data());
  return y_;
}

}  // namespace is2::nn
