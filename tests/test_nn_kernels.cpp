// Property tests for the tiled/vectorized NN kernels against the retained
// reference kernels: odd shapes, accumulate on/off, fused-epilogue
// consistency, batch-partition invariance of predict, softmax bit-
// stability, and a large square GEMM against the references.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/tensor.hpp"

namespace {

using namespace is2::nn;
using is2::util::Rng;

Mat random_mat(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Mat m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal(0.0, scale));
  return m;
}

const std::size_t kShapes[] = {1, 3, 7, 17, 64, 129};

/// |a - b| <= tol * max(1, |a|, |b|) elementwise.
void expect_near_rel(const Mat& a, const Mat& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double av = a.data()[i], bv = b.data()[i];
    const double scale = std::max({1.0, std::abs(av), std::abs(bv)});
    EXPECT_NEAR(av, bv, tol * scale) << "element " << i;
  }
}

void expect_bitwise_equal(const Mat& a, const Mat& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
}

// gemm_nt's lane decomposition legitimately reorders the k-summation, so it
// gets a tolerance; gemm_nn / gemm_tn preserve the reference per-element
// order exactly and must match bit for bit.

TEST(KernelProperty, GemmNtMatchesReferenceAcrossShapes) {
  Rng rng(1);
  for (std::size_t m : kShapes)
    for (std::size_t n : kShapes)
      for (std::size_t k : kShapes)
        for (bool accumulate : {false, true}) {
          const Mat a = random_mat(m, k, rng);
          const Mat b = random_mat(n, k, rng);
          Mat c = random_mat(m, n, rng);  // nonzero: exercises accumulate
          Mat c_ref = c;
          gemm_nt(a, b, c, accumulate);
          gemm_nt_reference(a, b, c_ref, accumulate);
          // Rounding of the reordered k-summation grows with the
          // accumulation length; sqrt(k) matches the random-walk error
          // model.
          expect_near_rel(c, c_ref, 1e-5 * (1.0 + std::sqrt(static_cast<double>(k))));
        }
}

TEST(KernelProperty, GemmNnBitIdenticalToReferenceAcrossShapes) {
  Rng rng(2);
  for (std::size_t m : kShapes)
    for (std::size_t n : kShapes)
      for (std::size_t k : kShapes)
        for (bool accumulate : {false, true}) {
          const Mat a = random_mat(m, k, rng);
          const Mat b = random_mat(k, n, rng);
          Mat c = random_mat(m, n, rng);
          Mat c_ref = c;
          gemm_nn(a, b, c, accumulate);
          gemm_nn_reference(a, b, c_ref, accumulate);
          expect_bitwise_equal(c, c_ref);
        }
}

TEST(KernelProperty, GemmTnBitIdenticalToReferenceAcrossShapes) {
  Rng rng(3);
  for (std::size_t m : kShapes)
    for (std::size_t n : kShapes)
      for (std::size_t k : kShapes)
        for (bool accumulate : {false, true}) {
          const Mat a = random_mat(k, m, rng);
          const Mat b = random_mat(k, n, rng);
          Mat c = random_mat(m, n, rng);
          Mat c_ref = c;
          gemm_tn(a, b, c, accumulate);
          gemm_tn_reference(a, b, c_ref, accumulate);
          expect_bitwise_equal(c, c_ref);
        }
}

TEST(KernelProperty, FusedDenseMatchesUnfusedComposition) {
  Rng rng(4);
  for (std::size_t m : {1u, 7u, 64u, 256u})
    for (std::size_t n : {1u, 3u, 17u, 96u})
      for (std::size_t k : {1u, 6u, 32u, 112u})
        for (Activation act :
             {Activation::Linear, Activation::Relu, Activation::Elu, Activation::Sigmoid}) {
          const Mat x = random_mat(m, k, rng);
          const Mat w = random_mat(n, k, rng);
          const Mat b = random_mat(1, n, rng);
          Mat y;
          dense_forward_fused(x, w, b, act, y);
          // Unfused composition through the reference kernel.
          Mat z_ref(m, n);
          gemm_nt_reference(x, w, z_ref, false);
          for (std::size_t r = 0; r < m; ++r)
            for (std::size_t c = 0; c < n; ++c)
              z_ref.at(r, c) = activate(act, z_ref.at(r, c) + b.at(0, c));
          expect_near_rel(y, z_ref, 1e-5);

          // Train variant: z must be the pre-activation, y = act(z) exactly.
          Mat z, y2;
          dense_forward_train(x, w, b, act, z, y2);
          expect_bitwise_equal(y2, y);
          for (std::size_t i = 0; i < z.size(); ++i)
            EXPECT_EQ(activate(act, z.data()[i]), y2.data()[i]) << "element " << i;
        }
}

TEST(KernelProperty, TransposeRoundTrip) {
  Rng rng(5);
  const Mat a = random_mat(17, 29, rng);
  Mat at, back;
  transpose(a, at);
  transpose(at, back);
  ASSERT_EQ(at.rows(), 29u);
  ASSERT_EQ(at.cols(), 17u);
  expect_bitwise_equal(a, back);
}

TEST(Softmax, OnlineBitIdenticalToReference) {
  Rng rng(6);
  // Random rows plus adversarial max placements (front, back, middle,
  // ties, large spread) — the online recompute must stay bit-identical.
  std::vector<Mat> cases;
  cases.push_back(random_mat(64, 3, rng, 4.0));
  cases.push_back(random_mat(16, 129, rng, 2.0));
  Mat sorted_desc(4, 9), sorted_asc(4, 9), ties(4, 9);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 9; ++c) {
      sorted_desc.at(r, c) = 10.0f - static_cast<float>(c);
      sorted_asc.at(r, c) = static_cast<float>(c) - 4.0f;
      ties.at(r, c) = static_cast<float>(c % 3);
    }
  cases.push_back(sorted_desc);
  cases.push_back(sorted_asc);
  cases.push_back(ties);
  Mat spread = random_mat(8, 5, rng, 30.0);  // exercises the zmax guard
  cases.push_back(spread);

  for (const Mat& logits : cases) {
    Mat p, p_ref;
    softmax_rows(logits, p);
    softmax_rows_reference(logits, p_ref);
    expect_bitwise_equal(p, p_ref);
  }
}

TEST(Predict, BatchPartitionInvariance) {
  Rng rng(7);
  Sequential model = make_lstm_model(5, 6, rng);
  Tensor3 x(101, 5, 6);
  Rng xr(8);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  const auto full = model.predict(x, 256);
  EXPECT_EQ(model.predict(x, 1), full);
  EXPECT_EQ(model.predict(x, 7), full);
  EXPECT_EQ(model.predict(x, 100), full);
  EXPECT_EQ(model.predict(x, 101), full);
}

TEST(Predict, InferenceMatchesTrainingForwardWithoutDropout) {
  // The inference fast path (rolling LSTM buffers, fused epilogues, no
  // caches) must produce the same logits as the training path when no
  // dropout is active — both run the same kernel sequence.
  Rng rng(9);
  Sequential model;
  model.set_front(std::make_unique<Lstm>(6, 16, Activation::Elu, /*dropout=*/0.0, rng));
  model.add(Dense(16, 32, Activation::Elu, rng));
  model.add(Dense(32, 3, Activation::Linear, rng));
  Tensor3 x(33, 5, 6);
  Rng xr(10);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  Mat train_logits = model.forward(x, /*training=*/true);  // copy
  const Mat& infer_logits = model.forward(x, /*training=*/false);
  expect_bitwise_equal(train_logits, infer_logits);
}

TEST(Backward, ThrowsAfterInferenceForward) {
  Rng rng(11);
  Sequential model = make_mlp_model(5, 6, rng);
  Tensor3 x(4, 5, 6);
  model.forward(x, /*training=*/false);
  Mat grad(4, 3, 0.1f);
  EXPECT_THROW(model.backward(grad), std::logic_error);
}

TEST(Determinism, LargeGemmMatchesReference) {
  // A square 160^3 GEMM (4.1 M multiply-adds, well above the classifier's
  // shapes): gemm_nn keeps the reference summation order to the bit, and
  // gemm_nt stays within its sqrt(k) lane-reordering bound.
  Rng rng(12);
  const Mat a = random_mat(160, 160, rng);
  const Mat b = random_mat(160, 160, rng);

  Mat nt(160, 160), nt_ref(160, 160);
  gemm_nt(a, b, nt);
  gemm_nt_reference(a, b, nt_ref);
  expect_near_rel(nt, nt_ref, 1e-5 * (1.0 + std::sqrt(160.0)));

  Mat nn(160, 160), nn_ref(160, 160);
  gemm_nn(a, b, nn);
  gemm_nn_reference(a, b, nn_ref);
  expect_bitwise_equal(nn, nn_ref);
}

TEST(Determinism, ActivationRowsMatchScalarActivate) {
  // Row helpers (possibly SIMD-vectorized) and the scalar activate() must
  // agree bit for bit — the LSTM cell uses the rows, tests and backward
  // paths use the scalar form.
  Rng rng(13);
  const Mat x = random_mat(3, 257, rng, 3.0);
  for (Activation act : {Activation::Relu, Activation::Elu, Activation::Tanh,
                         Activation::Sigmoid, Activation::Linear}) {
    Mat y(3, 257);
    for (std::size_t r = 0; r < x.rows(); ++r)
      activate_row_copy(act, x.row(r), y.row(r), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(y.data()[i], activate(act, x.data()[i])) << "element " << i;
  }
}

TEST(Activations, PolynomialExpAccuracy) {
  // The polynomial exp behind sigmoid/ELU carries a documented tolerance
  // vs libm: |rel err| < 1e-6 across the active range.
  for (float x = -30.0f; x <= 30.0f; x += 0.0137f) {
    const double sig_ref = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
    EXPECT_NEAR(activate(Activation::Sigmoid, x), sig_ref, 1e-6 * std::max(1.0, sig_ref))
        << "x=" << x;
    const double elu_ref =
        x > 0.0f ? static_cast<double>(x) : std::expm1(static_cast<double>(x));
    EXPECT_NEAR(activate(Activation::Elu, x), elu_ref,
                1e-6 * std::max(1.0, std::abs(elu_ref)))
        << "x=" << x;
  }
  // Saturation limits stay sane.
  EXPECT_NEAR(activate(Activation::Sigmoid, 100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(activate(Activation::Sigmoid, -100.0f), 0.0f, 1e-6);
  EXPECT_NEAR(activate(Activation::Elu, -100.0f), -1.0f, 1e-6);
}

TEST(Activations, NanPropagatesLikeLibm) {
  // NaN features must stay visible in the logits (as with libm exp), not
  // silently become finite — and the int cast inside the polynomial exp
  // must never see NaN (UB).
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(activate(Activation::Sigmoid, nan)));
  EXPECT_TRUE(std::isnan(activate(Activation::Elu, nan)));
  EXPECT_TRUE(std::isnan(activate(Activation::Tanh, nan)));
  float row[3] = {1.0f, nan, -1.0f};
  float out[3];
  activate_row_copy(Activation::Sigmoid, row, out, 3);
  EXPECT_FALSE(std::isnan(out[0]));
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_FALSE(std::isnan(out[2]));
  activate_row_copy(Activation::Elu, row, out, 3);
  EXPECT_TRUE(std::isnan(out[1]));
}

TEST(Predict, WeightTransposeCacheBitIdenticalAcrossCalls) {
  // Dense/LSTM cache their pre-transposed weight panels across forward
  // calls (the ROADMAP-named inference lever). Repeated predicts on a warm
  // cache must be bit-identical to a never-cached fresh model.
  Rng rng(21);
  Sequential cached = make_lstm_model(5, 6, rng);
  Tensor3 x(67, 5, 6);
  Rng xr(22);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));

  const auto first = cached.predict(x);   // builds the transpose caches
  const auto second = cached.predict(x);  // served from the caches
  const auto third = cached.predict(x);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);

  Rng rng_fresh(21);
  Sequential fresh = make_lstm_model(5, 6, rng_fresh);
  EXPECT_EQ(fresh.predict(x), first);
}

TEST(Predict, WeightTransposeCacheInvalidatesOnWeightMutation) {
  // The dangerous scenario for a weight-transpose cache: predict (cache
  // warm), then mutate the weights through the params() views, then predict
  // again. A stale cache would reuse the old transposes; predictions must
  // instead match a fresh model carrying the mutated weights.
  Rng rng(23);
  Sequential model = make_lstm_model(5, 6, rng);
  Tensor3 x(41, 5, 6);
  Rng xr(24);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  const auto before = model.predict(x);  // warms every layer's cache

  auto perturb = [](Sequential& m) {
    for (const auto& p : m.params())
      for (std::size_t i = 0; i < p.value->size(); ++i)
        p.value->data()[i] += 0.05f * static_cast<float>((i % 7) + 1);
  };
  perturb(model);
  const auto after = model.predict(x);

  Rng rng_fresh(23);
  Sequential fresh = make_lstm_model(5, 6, rng_fresh);
  perturb(fresh);
  EXPECT_EQ(after, fresh.predict(x));  // cache invalidated, not stale
  EXPECT_NE(after, before);            // and the mutation really changed logits
}

TEST(Predict, WeightTransposeCacheInvalidatesAcrossTraining) {
  // Same property through the real mutation path: warm the cache, train
  // (backward marks the caches dirty; the optimizer then mutates weights),
  // and compare against an identically-trained never-predicted control.
  Rng rng(25);
  Sequential model = make_lstm_model(5, 6, rng);
  Rng rng_ctrl(25);
  Sequential control = make_lstm_model(5, 6, rng_ctrl);

  Dataset data;
  data.x = Tensor3(48, 5, 6);
  Rng xr(26);
  for (auto& v : data.x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  data.y.resize(48);
  for (std::size_t i = 0; i < data.y.size(); ++i) data.y[i] = i % 3;

  (void)model.predict(data.x);  // warm caches before training

  FitConfig fit;
  fit.epochs = 2;
  fit.batch_size = 16;
  FocalLoss loss(0.0);
  Adam opt_a(0.01), opt_b(0.01);
  model.fit(data, loss, opt_a, fit);
  control.fit(data, loss, opt_b, fit);

  EXPECT_EQ(model.predict(data.x), control.predict(data.x));
}

}  // namespace
