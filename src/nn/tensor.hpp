// Minimal dense linear algebra for the classifier stack: a float matrix, a
// rank-3 tensor for [batch, time, feature] sequences, the three GEMM shapes
// the layers need, and fused dense-layer forward kernels (bias + activation
// epilogues applied while the output tile is still in registers).
//
// Kernel design (see docs/performance.md for the full story):
//  * The production kernels are cache-blocked and register-tiled: gemm_nt
//    accumulates each dot product in a fixed set of kLanes independent
//    partial sums (combined in a fixed order), with a 4-wide tile over
//    output columns so each A-row load is reused; gemm_nn / gemm_tn keep
//    the reference per-element summation order (they vectorize across the
//    contiguous j dimension) and register-tile 4 rows to reuse B-row loads.
//  * Floating-point summation order is fully determined by the code (lane
//    structure + blocking), never by the compiler or the SIMD width. The
//    kernels are serial and start no threads: callers scale by tasks
//    (mapred::Engine, serve workers, rank threads), each running its own
//    kernels. The `omp simd` loop hints in tensor.cpp only ask for
//    vectorization; they are compiled with -fopenmp-simd, which needs no
//    OpenMP runtime.
//  * The pre-tiling scalar kernels are retained as gemm_*_reference: they
//    are the test oracles (property tests in test_nn_kernels) and the
//    baseline bench_nn_kernels measures speedup against. gemm_nn/gemm_tn
//    are bit-identical to their references; gemm_nt's lane decomposition
//    legitimately reorders the k-summation (documented tolerance).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace is2::nn {

class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), d_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return d_.size(); }
  bool empty() const { return d_.empty(); }

  float* row(std::size_t r) { return d_.data() + r * cols_; }
  const float* row(std::size_t r) const { return d_.data() + r * cols_; }
  float& at(std::size_t r, std::size_t c) { return d_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return d_[r * cols_ + c]; }

  float* data() { return d_.data(); }
  const float* data() const { return d_.data(); }
  std::span<float> flat() { return d_; }
  std::span<const float> flat() const { return d_; }

  void fill(float v) { std::fill(d_.begin(), d_.end(), v); }
  /// Reshape to rows x cols. A no-op when the shape already matches (the
  /// contents are left as-is so hot loops can reuse scratch matrices with
  /// zero per-call allocation); otherwise the storage is zero-filled.
  void resize(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    d_.assign(rows * cols, 0.0f);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> d_;
};

/// [n, t, d] sequence batch, contiguous row-major.
struct Tensor3 {
  std::size_t n = 0, t = 0, d = 0;
  std::vector<float> v;

  Tensor3() = default;
  Tensor3(std::size_t n_, std::size_t t_, std::size_t d_) : n(n_), t(t_), d(d_), v(n_ * t_ * d_) {}

  float* at(std::size_t i, std::size_t step) { return v.data() + (i * t + step) * d; }
  const float* at(std::size_t i, std::size_t step) const { return v.data() + (i * t + step) * d; }
  std::size_t sample_size() const { return t * d; }

  /// Reshape, reusing existing capacity (no shrink): the batched predict
  /// path flips between the full batch and the tail batch without churning
  /// the allocator.
  void resize(std::size_t n_, std::size_t t_, std::size_t d_) {
    n = n_;
    t = t_;
    d = d_;
    v.resize(n_ * t_ * d_);
  }
};

/// Activations used by the layers. Lives here (not layers.hpp) so the fused
/// GEMM epilogues below can apply them; layers.hpp re-exports via include.
enum class Activation { Linear, Relu, Elu, Tanh, Sigmoid };

float activate(Activation a, float x);
/// Derivative given pre-activation x and activated value y.
float activate_grad(Activation a, float x, float y);
/// Derivative recovered from the activated value alone (valid for the
/// monotone activations used here; what BPTT uses when z isn't cached).
float activate_grad_from_y(Activation a, float y);

/// C (+)= A * B^T.  A:[m,k] B:[n,k] C:[m,n]
void gemm_nt(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);
/// C (+)= A * B.    A:[m,k] B:[k,n] C:[m,n]
void gemm_nn(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);
/// C (+)= A^T * B.  A:[k,m] B:[k,n] C:[m,n]
void gemm_tn(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);

// Pre-tiling scalar kernels, kept as the test oracle and bench baseline.
void gemm_nt_reference(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);
void gemm_nn_reference(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);
void gemm_tn_reference(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);

/// Output-width threshold of the fused dense forward's kernel dispatch:
/// layers with fewer than this many output columns take the lane-split
/// narrow row kernel (reads W directly, no transpose), wider layers take
/// the packed kernel on a pre-transposed panel. Exposed so callers that
/// pre-transpose and cache W^T themselves (Dense's inference path) dispatch
/// on exactly the same boundary — the two kernels have different float
/// summation orders, so a mismatch would break inference==training
/// bit-identity.
inline constexpr std::size_t kDenseFusedColTile = 4;

/// Fused dense-layer inference forward: y = act(x W^T + b) in a single pass
/// over the output (bias add + activation happen while the block is still
/// register/L1-hot). x:[m,k] w:[n,k] b:[1,n] y:[m,n] (y resized).
/// Summation order: for n >= 4 the packed path seeds the accumulator with
/// the bias and sums over k in increasing order (gemm_nn order); narrower
/// outputs use the lane-split gemm_nt row kernel with the bias added last.
/// Both orders are fixed per layer shape and deterministic everywhere, but
/// NOT bit-identical to the unfused gemm_nt + bias-pass + act composition —
/// property tests bound the drift at 1e-5·(1+sqrt(k)) relative.
void dense_forward_fused(const Mat& x, const Mat& w, const Mat& bias, Activation act, Mat& y);

/// Training variant: additionally stores the pre-activation z (needed by
/// backward) in the same single traversal. z and y are resized.
void dense_forward_train(const Mat& x, const Mat& w, const Mat& bias, Activation act, Mat& z,
                         Mat& y);

/// at = a^T (at resized).
void transpose(const Mat& a, Mat& at);

/// Fused forward on a caller-pretransposed weight panel wt:[k,n] (i.e.
/// W^T): y = act(x wt + b), z_store (nullable) receives the pre-activation.
/// What the LSTM uses so the weight transpose is hoisted out of the
/// per-timestep loop; dense_forward_fused/_train are this plus a transpose.
void dense_forward_pre(const Mat& x, const Mat& wt, const Mat& bias, Activation act,
                       Mat* z_store, Mat& y);

/// y[j] = act(x[j]) over a contiguous range with the switch hoisted out of
/// the element loop (x == y aliasing allowed). The row-granular form the
/// layer epilogues and the LSTM cell share.
void activate_row_copy(Activation act, const float* x, float* y, std::size_t n);

/// y[j] = 1 / (1 + exp(-x[j])) (x == y aliasing allowed).
void sigmoid_row(const float* x, float* y, std::size_t n);

}  // namespace is2::nn
