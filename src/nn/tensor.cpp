#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#if defined(__GNUC__) || defined(__clang__)
#define IS2_RESTRICT __restrict__
#else
#define IS2_RESTRICT
#endif

namespace is2::nn {

namespace {

// Polynomial expf (Cody–Waite range reduction + the Cephes degree-6
// minimax on [-ln2/2, ln2/2], ~3 ulp): the sigmoid/ELU gate activations
// are the classifier's hottest transcendentals, and libm expf's
// special-case handling costs several times this. Pure float arithmetic —
// no table lookups, no FMA contraction sensitivity that matters at this
// accuracy — so results are identical across ISAs. Used only by the
// activation helpers below; the losses and softmax keep libm exp (their
// bit-stability oracle predates this kernel).
inline float poly_exp_tail(float r) {
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  return p;
}

/// Safety clamp to the exponent-trick domain, written as |.|-arithmetic
/// rather than ternaries: GCC 12 refuses to if-convert a ternary clamp
/// whose result feeds further arithmetic, which silently kept these loops
/// scalar. The correction-term form `v - relu(v-87) + relu(-87-v)` is
/// EXACTLY v for in-range inputs — relu(y) = (y+|y|)/2 is a true zero for
/// negative y, so no rounding from the bound ever contaminates small
/// inputs (the naive (v+87+|v-87|)/2 form cost ~3e-6 of absolute error
/// near zero). Out of range the result is ~±87, where e^x saturated long
/// ago and rounding is irrelevant.
inline float clamp87(float v) {
  const float over = v - 87.0f;                       // > 0 only when v > 87
  const float under = -87.0f - v;                     // > 0 only when v < -87
  return v - 0.5f * (over + std::fabs(over)) + 0.5f * (under + std::fabs(under));
}

inline float fast_expf(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kC1 = 0.693359375f;      // ln2 split, high part
  constexpr float kC2 = -2.12194440e-4f;   // ln2 split, low part
  constexpr float kMagic = 12582912.0f;    // 1.5 * 2^23: branch-free rounding
  const float xc = clamp87(x);             // NaN passes through untouched
  const float z = xc * kLog2e;
  const float t = z + kMagic;              // low mantissa bits now hold round(z)
  const float nf = t - kMagic;             // round-to-nearest, no cvt branch
  const float r = (xc - nf * kC1) - nf * kC2;
  const float e = poly_exp_tail(r) * r * r + r + 1.0f;
  // Scale by 2^n (n within [-126, 126] after the clamp, so the result
  // stays normal). n is recovered from t's bit pattern with unsigned
  // arithmetic — adding an integer n to kMagic leaves the exponent field
  // alone and adds n to the mantissa exactly, so the pattern difference IS
  // n — and crucially there is no float->int conversion anywhere: a NaN
  // input (t = NaN) just yields some garbage finite scale, and e — already
  // NaN through r — propagates NaN to the product, exactly like libm expf,
  // with no UB on any path.
  std::uint32_t t_bits, magic_bits;
  std::memcpy(&t_bits, &t, sizeof t_bits);
  std::memcpy(&magic_bits, &kMagic, sizeof magic_bits);
  const std::uint32_t bits = (t_bits - magic_bits + 127u) << 23;
  float s;
  std::memcpy(&s, &bits, sizeof s);
  return e * s;
}

/// Select-free ELU: elu(x) = max(x,0) + (e^min(x,0) - 1), with the max/min
/// as exact |.|-arithmetic (x+|x| and x-|x| are exact in float). No
/// data-dependent branch, no blend the if-converter can refuse — the loops
/// over this vectorize end to end, where the earlier sign-branch version
/// mispredicted on ~every other element of sign-mixed activations. For
/// x > 0 the exp term is exactly e^0 - 1 = 0. The e^x - 1 subtraction
/// costs up to ~1e-7 absolute near 0 (where ELU ~ x); the documented
/// activation tolerance covers it.
inline float fast_eluf(float x) {
  const float pos = 0.5f * (x + std::fabs(x));  // max(x, 0), exact
  const float neg = 0.5f * (x - std::fabs(x));  // min(x, 0), exact
  return pos + (fast_expf(neg) - 1.0f);
}

}  // namespace

float activate(Activation a, float x) {
  switch (a) {
    case Activation::Linear: return x;
    case Activation::Relu: return x > 0.0f ? x : 0.0f;
    case Activation::Elu: return fast_eluf(x);
    case Activation::Tanh: return std::tanh(x);
    case Activation::Sigmoid: return 1.0f / (1.0f + fast_expf(-x));
  }
  return x;
}

float activate_grad(Activation a, float x, float y) {
  switch (a) {
    case Activation::Linear: return 1.0f;
    case Activation::Relu: return x > 0.0f ? 1.0f : 0.0f;
    case Activation::Elu: return x > 0.0f ? 1.0f : y + 1.0f;  // d/dx e^x - 1 = y + 1
    case Activation::Tanh: return 1.0f - y * y;
    case Activation::Sigmoid: return y * (1.0f - y);
  }
  return 1.0f;
}

float activate_grad_from_y(Activation a, float y) {
  switch (a) {
    case Activation::Linear: return 1.0f;
    case Activation::Relu: return y > 0.0f ? 1.0f : 0.0f;
    case Activation::Elu: return y > 0.0f ? 1.0f : y + 1.0f;
    case Activation::Tanh: return 1.0f - y * y;
    case Activation::Sigmoid: return y * (1.0f - y);
  }
  return 1.0f;
}

namespace {

// Number of independent partial sums each gemm_nt dot product is split
// into. Fixed in code (not tied to any SIMD width) so the summation order
// — and therefore the result, bit for bit — is identical whether the
// compiler emits SSE, AVX2, AVX-512 or scalar code. 8 lanes break the
// scalar add-latency chain that bounds the reference kernel while a
// 4-column tile still fits 16 SSE registers.
constexpr std::size_t kLanes = 8;

// Register tile over output columns in gemm_nt: 4 B-rows share each A-row
// load, quadrupling the arithmetic per byte of A traffic. Also the fused
// dense forward's narrow/packed dispatch boundary — published in tensor.hpp
// (kDenseFusedColTile) so external cached-transpose paths dispatch on the
// same line.
constexpr std::size_t kColTile = kDenseFusedColTile;

// Panel blocking over k: bounds the column tile's live B working set
// (kColTile * kPanelK floats = 16 KiB, half an L1) so an A row streams
// against L1-resident B panels. The classifier's k never exceeds 112, so a
// single panel is the common case; the blocking exists so large shapes
// don't fall off a cache cliff.
constexpr std::size_t kPanelK = 1024;

/// One gemm_nt output row: ci[j] (+)= dot(ai, b.row(j)) + bias[j] for j in
/// [0, n). Dot products accumulate in kLanes fixed partial sums, combined
/// in lane order, then the scalar tail in index order — a deterministic
/// schedule. `bias` (nullable) is added in the register epilogue, after the
/// full dot product, i.e. in exactly the order the unfused
/// gemm-then-bias-pass sequence would produce.
void gemm_nt_row(const float* IS2_RESTRICT ai, const Mat& b, float* IS2_RESTRICT ci,
                 std::size_t n, std::size_t k, bool accumulate,
                 const float* IS2_RESTRICT bias = nullptr) {
  const std::size_t k_lanes = k - k % kLanes;
  std::size_t j = 0;
  for (; j + kColTile <= n; j += kColTile) {
    const float* IS2_RESTRICT b0 = b.row(j);
    const float* IS2_RESTRICT b1 = b.row(j + 1);
    const float* IS2_RESTRICT b2 = b.row(j + 2);
    const float* IS2_RESTRICT b3 = b.row(j + 3);
    float acc0[kLanes] = {}, acc1[kLanes] = {}, acc2[kLanes] = {}, acc3[kLanes] = {};
    for (std::size_t p0 = 0; p0 < k_lanes; p0 += kPanelK) {
      const std::size_t pe = std::min(p0 + kPanelK, k_lanes);
      for (std::size_t p = p0; p < pe; p += kLanes) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          const float av = ai[p + l];
          acc0[l] += av * b0[p + l];
          acc1[l] += av * b1[p + l];
          acc2[l] += av * b2[p + l];
          acc3[l] += av * b3[p + l];
        }
      }
    }
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (std::size_t l = 0; l < kLanes; ++l) {
      s0 += acc0[l];
      s1 += acc1[l];
      s2 += acc2[l];
      s3 += acc3[l];
    }
    for (std::size_t p = k_lanes; p < k; ++p) {
      const float av = ai[p];
      s0 += av * b0[p];
      s1 += av * b1[p];
      s2 += av * b2[p];
      s3 += av * b3[p];
    }
    if (bias) {
      s0 += bias[j];
      s1 += bias[j + 1];
      s2 += bias[j + 2];
      s3 += bias[j + 3];
    }
    if (accumulate) {
      ci[j] += s0;
      ci[j + 1] += s1;
      ci[j + 2] += s2;
      ci[j + 3] += s3;
    } else {
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
  }
  for (; j < n; ++j) {
    const float* IS2_RESTRICT bj = b.row(j);
    float acc[kLanes] = {};
    for (std::size_t p = 0; p < k_lanes; p += kLanes)
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) acc[l] += ai[p + l] * bj[p + l];
    float s = 0.0f;
    for (std::size_t l = 0; l < kLanes; ++l) s += acc[l];
    for (std::size_t p = k_lanes; p < k; ++p) s += ai[p] * bj[p];
    if (bias) s += bias[j];
    ci[j] = accumulate ? ci[j] + s : s;
  }
}

/// In-place activation over one (L1-hot) output row. Linear is a no-op.
void activate_row(Activation act, float* y, std::size_t n) {
  if (act != Activation::Linear) activate_row_copy(act, y, y, n);
}

/// Row-tile body shared by the gemm_nn row blocks. Each output element's
/// additions happen in increasing-p order exactly as in the reference
/// kernel, so this path is bit-identical to gemm_nn_reference.
template <std::size_t RT>
void gemm_nn_rows(const Mat& a, const Mat& b, Mat& c, std::size_t i0, std::size_t k,
                  std::size_t n) {
  const float* IS2_RESTRICT a0 = a.row(i0);
  const float* IS2_RESTRICT a1 = a.row(i0 + (RT > 1 ? 1 : 0));
  const float* IS2_RESTRICT a2 = a.row(i0 + (RT > 2 ? 2 : 0));
  const float* IS2_RESTRICT a3 = a.row(i0 + (RT > 3 ? 3 : 0));
  float* IS2_RESTRICT c0 = c.row(i0);
  float* IS2_RESTRICT c1 = c.row(i0 + (RT > 1 ? 1 : 0));
  float* IS2_RESTRICT c2 = c.row(i0 + (RT > 2 ? 2 : 0));
  float* IS2_RESTRICT c3 = c.row(i0 + (RT > 3 ? 3 : 0));
  for (std::size_t p = 0; p < k; ++p) {
    const float* IS2_RESTRICT bp = b.row(p);
    const float av0 = a0[p];
    const float av1 = RT > 1 ? a1[p] : 0.0f;
    const float av2 = RT > 2 ? a2[p] : 0.0f;
    const float av3 = RT > 3 ? a3[p] : 0.0f;
#pragma omp simd
    for (std::size_t jj = 0; jj < n; ++jj) {
      c0[jj] += av0 * bp[jj];
      if (RT > 1) c1[jj] += av1 * bp[jj];
      if (RT > 2) c2[jj] += av2 * bp[jj];
      if (RT > 3) c3[jj] += av3 * bp[jj];
    }
  }
}

}  // namespace

void gemm_nt(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_nt: shape mismatch");
  for (std::size_t i = 0; i < m; ++i) gemm_nt_row(a.row(i), b, c.row(i), n, k, accumulate);
}

void gemm_nn(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_nn: shape mismatch");
  for (std::size_t i0 = 0; i0 < m; i0 += 4) {
    const std::size_t rt = std::min<std::size_t>(4, m - i0);
    if (!accumulate)
      for (std::size_t r = 0; r < rt; ++r) std::fill(c.row(i0 + r), c.row(i0 + r) + n, 0.0f);
    switch (rt) {
      case 4: gemm_nn_rows<4>(a, b, c, i0, k, n); break;
      case 3: gemm_nn_rows<3>(a, b, c, i0, k, n); break;
      case 2: gemm_nn_rows<2>(a, b, c, i0, k, n); break;
      default: gemm_nn_rows<1>(a, b, c, i0, k, n); break;
    }
  }
}

void gemm_tn(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (b.rows() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_tn: shape mismatch");
  // Output-row blocks of 4 reuse each B-row load four times; A supplies 4
  // contiguous floats per (p, block). Per-element additions stay in
  // increasing-p order, bit-identical to gemm_tn_reference.
  for (std::size_t i0 = 0; i0 < m; i0 += 4) {
    const std::size_t rt = std::min<std::size_t>(4, m - i0);
    float* IS2_RESTRICT c0 = c.row(i0);
    float* IS2_RESTRICT c1 = c.row(i0 + (rt > 1 ? 1 : 0));
    float* IS2_RESTRICT c2 = c.row(i0 + (rt > 2 ? 2 : 0));
    float* IS2_RESTRICT c3 = c.row(i0 + (rt > 3 ? 3 : 0));
    if (!accumulate)
      for (std::size_t r = 0; r < rt; ++r) std::fill(c.row(i0 + r), c.row(i0 + r) + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float* IS2_RESTRICT ap = a.row(p) + i0;
      const float* IS2_RESTRICT bp = b.row(p);
      const float av0 = ap[0];
      const float av1 = rt > 1 ? ap[1] : 0.0f;
      const float av2 = rt > 2 ? ap[2] : 0.0f;
      const float av3 = rt > 3 ? ap[3] : 0.0f;
      switch (rt) {
        case 4:
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            c0[j] += av0 * bp[j];
            c1[j] += av1 * bp[j];
            c2[j] += av2 * bp[j];
            c3[j] += av3 * bp[j];
          }
          break;
        case 3:
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            c0[j] += av0 * bp[j];
            c1[j] += av1 * bp[j];
            c2[j] += av2 * bp[j];
          }
          break;
        case 2:
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            c0[j] += av0 * bp[j];
            c1[j] += av1 * bp[j];
          }
          break;
        default:
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) c0[j] += av0 * bp[j];
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reference kernels (pre-tiling scalar loops): test oracle + bench baseline.
// ---------------------------------------------------------------------------

void gemm_nt_reference(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_nt: shape mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const float* bj = b.row(j);
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = accumulate ? ci[j] + acc : acc;
    }
  }
}

void gemm_nn_reference(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_nn: shape mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    if (!accumulate) std::fill(ci, ci + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = ai[p];
      const float* bp = b.row(p);
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void gemm_tn_reference(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (b.rows() != k || c.rows() != m || c.cols() != n)
    throw std::invalid_argument("gemm_tn: shape mismatch");
  if (!accumulate) c.fill(0.0f);
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a.row(p);
    const float* bp = b.row(p);
    for (std::size_t i = 0; i < m; ++i) {
      const float av = ap[i];
      float* ci = c.row(i);
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Fused dense-layer forward
// ---------------------------------------------------------------------------

void transpose(const Mat& a, Mat& at) {
  const std::size_t m = a.rows(), n = a.cols();
  at.resize(n, m);
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    for (std::size_t j = 0; j < n; ++j) at.at(j, i) = ai[j];
  }
}

namespace {

/// Fused forward core on a pre-transposed weight panel: for each 4-row
/// block of x, the output rows start at the bias, accumulate x @ wt with
/// the gemm_nn register tile (contiguous j inner loop — the layout the
/// vectorizer likes, with no reduction reorder), then the activation runs
/// over the still-L1-hot block. One pass over the output. z_store, when
/// non-null, receives the pre-activation block in the same pass.
void dense_forward_packed(const Mat& x, const Mat& wt, const float* IS2_RESTRICT bias,
                          Activation act, Mat* z_store, Mat& y) {
  const std::size_t m = x.rows(), k = x.cols(), n = wt.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += 4) {
    const std::size_t rt = std::min<std::size_t>(4, m - i0);
    for (std::size_t r = 0; r < rt; ++r) std::copy(bias, bias + n, y.row(i0 + r));
    switch (rt) {
      case 4: gemm_nn_rows<4>(x, wt, y, i0, k, n); break;
      case 3: gemm_nn_rows<3>(x, wt, y, i0, k, n); break;
      case 2: gemm_nn_rows<2>(x, wt, y, i0, k, n); break;
      default: gemm_nn_rows<1>(x, wt, y, i0, k, n); break;
    }
    for (std::size_t r = 0; r < rt; ++r) {
      float* yi = y.row(i0 + r);
      if (z_store) std::copy(yi, yi + n, z_store->row(i0 + r));
      activate_row(act, yi, n);
    }
  }
}

// Per-thread transposed-weight scratch: the transpose costs O(n*k) once per
// call and is amortized over the m-row batch; thread_local keeps the public
// signatures free of scratch plumbing and replica threads race-free.
thread_local Mat t_wt_scratch;

/// Narrow-output fused forward (n below one column tile, e.g. the 3-class
/// logits head): the packed path's per-block bias/activation overhead
/// outweighs its GEMM win there, so each output row runs the lane-split
/// gemm_nt row kernel with the bias in its register epilogue. The dispatch
/// depends only on n (a per-layer constant), so every call for a given
/// layer takes the same deterministic summation order.
void dense_forward_narrow(const Mat& x, const Mat& w, const float* IS2_RESTRICT bias,
                          Activation act, Mat* z_store, Mat& y) {
  const std::size_t m = x.rows(), k = x.cols(), n = w.rows();
  for (std::size_t i = 0; i < m; ++i) {
    float* yi = y.row(i);
    gemm_nt_row(x.row(i), w, yi, n, k, /*accumulate=*/false, bias);
    if (z_store) std::copy(yi, yi + n, z_store->row(i));
    activate_row(act, yi, n);
  }
}

}  // namespace

void dense_forward_pre(const Mat& x, const Mat& wt, const Mat& bias, Activation act,
                       Mat* z_store, Mat& y) {
  const std::size_t m = x.rows(), k = x.cols(), n = wt.cols();
  if (wt.rows() != k || bias.rows() != 1 || bias.cols() != n)
    throw std::invalid_argument("dense_forward_pre: shape mismatch");
  if (z_store) z_store->resize(m, n);
  y.resize(m, n);
  dense_forward_packed(x, wt, bias.row(0), act, z_store, y);
}

void dense_forward_fused(const Mat& x, const Mat& w, const Mat& bias, Activation act, Mat& y) {
  const std::size_t m = x.rows(), k = x.cols(), n = w.rows();
  if (w.cols() != k || bias.rows() != 1 || bias.cols() != n)
    throw std::invalid_argument("dense_forward_fused: shape mismatch");
  y.resize(m, n);
  if (n < kColTile) {
    dense_forward_narrow(x, w, bias.row(0), act, nullptr, y);
    return;
  }
  transpose(w, t_wt_scratch);
  dense_forward_packed(x, t_wt_scratch, bias.row(0), act, nullptr, y);
}

void dense_forward_train(const Mat& x, const Mat& w, const Mat& bias, Activation act, Mat& z,
                         Mat& y) {
  const std::size_t m = x.rows(), k = x.cols(), n = w.rows();
  if (w.cols() != k || bias.rows() != 1 || bias.cols() != n)
    throw std::invalid_argument("dense_forward_train: shape mismatch");
  z.resize(m, n);
  y.resize(m, n);
  if (n < kColTile) {
    dense_forward_narrow(x, w, bias.row(0), act, &z, y);
    return;
  }
  transpose(w, t_wt_scratch);
  dense_forward_packed(x, t_wt_scratch, bias.row(0), act, &z, y);
}

void activate_row_copy(Activation act, const float* x, float* y, std::size_t n) {
  switch (act) {
    case Activation::Linear:
      if (y != x) std::copy(x, x + n, y);
      break;
    case Activation::Relu:
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) y[j] = x[j] > 0.0f ? x[j] : 0.0f;
      break;
    case Activation::Elu:
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) y[j] = fast_eluf(x[j]);
      break;
    case Activation::Tanh:
      for (std::size_t j = 0; j < n; ++j) y[j] = std::tanh(x[j]);
      break;
    case Activation::Sigmoid:
      sigmoid_row(x, y, n);
      break;
  }
}

void sigmoid_row(const float* x, float* y, std::size_t n) {
  // No restrict here: the contract allows x == y (the LSTM cell activates
  // gates in place). Same-index elementwise aliasing is still vectorizable,
  // and fast_expf is branch-free straight-line arithmetic, so the simd
  // pragma lets the compiler vectorize the whole polynomial per lane.
  // Per-element results are unchanged by vectorization (no cross-lane
  // reduction).
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) y[j] = 1.0f / (1.0f + fast_expf(-x[j]));
}

}  // namespace is2::nn
