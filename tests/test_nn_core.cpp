// NN numerical core tests: GEMM correctness, activation math, finite-
// difference gradient checks for Dense / LSTM / focal loss, Adam, metrics
// and weight serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>

#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/metrics.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
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

TEST(Tensor, GemmNtMatchesNaive) {
  Rng rng(1);
  const Mat a = random_mat(5, 7, rng);
  const Mat b = random_mat(4, 7, rng);
  Mat c(5, 4);
  gemm_nt(a, b, c);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      float want = 0.0f;
      for (std::size_t k = 0; k < 7; ++k) want += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), want, 1e-5);
    }
}

TEST(Tensor, GemmNnMatchesNaive) {
  Rng rng(2);
  const Mat a = random_mat(3, 6, rng);
  const Mat b = random_mat(6, 5, rng);
  Mat c(3, 5);
  gemm_nn(a, b, c);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      float want = 0.0f;
      for (std::size_t k = 0; k < 6; ++k) want += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), want, 1e-5);
    }
}

TEST(Tensor, GemmTnMatchesNaiveAndAccumulates) {
  Rng rng(3);
  const Mat a = random_mat(6, 3, rng);
  const Mat b = random_mat(6, 4, rng);
  Mat c(3, 4, 1.0f);
  gemm_tn(a, b, c, /*accumulate=*/true);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      float want = 1.0f;
      for (std::size_t k = 0; k < 6; ++k) want += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), want, 1e-5);
    }
}

TEST(Tensor, GemmShapeChecks) {
  Mat a(2, 3), b(2, 4), c(2, 2);
  EXPECT_THROW(gemm_nt(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
}

TEST(Activations, ValuesAndGrads) {
  EXPECT_FLOAT_EQ(activate(Activation::Relu, -1.0f), 0.0f);
  EXPECT_FLOAT_EQ(activate(Activation::Relu, 2.0f), 2.0f);
  EXPECT_NEAR(activate(Activation::Elu, -1.0f), std::expm1(-1.0f), 1e-6);
  EXPECT_FLOAT_EQ(activate(Activation::Elu, 3.0f), 3.0f);
  EXPECT_NEAR(activate(Activation::Sigmoid, 0.0f), 0.5f, 1e-6);
  // grad-from-y consistency with grad-from-x.
  for (float x : {-2.0f, -0.5f, 0.1f, 1.5f}) {
    for (auto a : {Activation::Elu, Activation::Tanh, Activation::Sigmoid, Activation::Relu}) {
      const float y = activate(a, x);
      EXPECT_NEAR(activate_grad(a, x, y), activate_grad_from_y(a, y), 1e-5);
    }
  }
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(4);
  const Mat logits = random_mat(6, 3, rng, 3.0);
  Mat probs;
  softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 6; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(probs.at(r, c), 0.0f);
      sum += probs.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

/// Four random rows and one saturated row: its label's softmax probability
/// rounds to exactly 1.
Mat logits_with_saturated_row(Rng& rng, double scale) {
  const Mat random = random_mat(4, 3, rng, scale);
  Mat logits(5, 3, 0.0f);
  std::copy(random.data(), random.data() + random.size(), logits.data());
  logits.at(4, 0) = 40.0f;
  return logits;
}

/// Finite-difference gradient check of a loss wrt logits.
void check_loss_gradient(const FocalLoss& loss) {
  Rng rng(5);
  Mat logits = logits_with_saturated_row(rng, 2.0);
  const std::vector<std::uint8_t> labels{0, 2, 1, 2, 0};
  Mat grad;
  loss.compute(logits, labels, grad);
  for (std::size_t i = 0; i < grad.size(); ++i)
    ASSERT_TRUE(std::isfinite(grad.data()[i])) << "logit " << i;
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits.data()[i];
    Mat tmp;
    logits.data()[i] = orig + eps;
    const double up = loss.compute(logits, labels, tmp);
    logits.data()[i] = orig - eps;
    const double down = loss.compute(logits, labels, tmp);
    logits.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad.data()[i], numeric, 5e-3) << "logit " << i;
  }
}

TEST(Loss, CrossEntropyGradientCheck) { check_loss_gradient(FocalLoss{0.0}); }

TEST(Loss, FocalGradientCheck) {
  // gamma < 1 once gave NaN gradients on the saturated row: the focal term
  // evaluated pow(0, gamma - 1) = inf times log(1) = 0.
  for (const double gamma : {0.0, 0.5, 1.0, 2.0}) {
    SCOPED_TRACE(gamma);
    check_loss_gradient(FocalLoss{gamma, {1.0, 2.0, 0.5}});
  }
}

TEST(Loss, FocalReducesToWeightedCeAtGammaZero) {
  // Closed-form weighted cross-entropy on the reference softmax:
  // L = mean(-alpha_y log p_y), dL/dz_c = alpha_y (p_c - [c == y]) / n.
  Rng rng(6);
  const Mat logits = logits_with_saturated_row(rng, 1.0);
  const std::vector<std::uint8_t> labels{0, 1, 2, 1, 0};
  Mat probs;
  softmax_rows_reference(logits, probs);
  const double n = static_cast<double>(labels.size());
  for (const std::array<double, 3> alpha :
       {std::array<double, 3>{1.0, 1.0, 1.0}, std::array<double, 3>{1.0, 2.0, 0.5}}) {
    SCOPED_TRACE(alpha[1]);
    Mat grad;
    const double loss = FocalLoss(0.0, alpha).compute(logits, labels, grad);
    double ce = 0.0;
    for (std::size_t r = 0; r < labels.size(); ++r) {
      const std::uint8_t y = labels[r];
      ce -= alpha[y] * std::log(static_cast<double>(probs.at(r, y))) / n;
      for (std::size_t c = 0; c < 3; ++c) {
        const double want = alpha[y] * (probs.at(r, c) - (c == y ? 1.0 : 0.0)) / n;
        EXPECT_NEAR(grad.at(r, c), want, 1e-6) << "row " << r << " class " << c;
      }
    }
    EXPECT_NEAR(loss, ce, 1e-6);
  }
}

TEST(Loss, BalancedAlphaInverseFrequency) {
  std::vector<std::uint8_t> labels;
  for (int i = 0; i < 80; ++i) labels.push_back(0);
  for (int i = 0; i < 15; ++i) labels.push_back(1);
  for (int i = 0; i < 5; ++i) labels.push_back(2);
  const auto alpha = FocalLoss::balanced_alpha(labels);
  EXPECT_LT(alpha[0], alpha[1]);
  EXPECT_LT(alpha[1], alpha[2]);
  EXPECT_NEAR((alpha[0] + alpha[1] + alpha[2]) / 3.0, 1.0, 1e-9);
}

/// Full-model gradient check (front end + dense stack) on a tiny model.
void check_model_gradients(Sequential& model, const Tensor3& x,
                           const std::vector<std::uint8_t>& labels, double tol) {
  const FocalLoss loss(0.0);
  auto params = model.params();
  for (auto& p : params) p.grad->fill(0.0f);
  Mat grad;
  // backward() requires a training-mode forward (the inference path skips
  // gradient caches). The finite-difference probes below use the inference
  // path, which for dropout-free models is numerically identical.
  loss.compute(model.forward(x, /*training=*/true), labels, grad);
  model.backward(grad);

  Rng pick(7);
  for (const auto& p : params) {
    // Sample a handful of coordinates per parameter tensor.
    for (int trial = 0; trial < 6; ++trial) {
      const auto i = static_cast<std::size_t>(
          pick.uniform_int(0, static_cast<std::int64_t>(p.value->size()) - 1));
      const float orig = p.value->data()[i];
      const float eps = 3e-3f;
      Mat tmp;
      p.value->data()[i] = orig + eps;
      const double up = loss.compute(model.forward(x, false), labels, tmp);
      p.value->data()[i] = orig - eps;
      const double down = loss.compute(model.forward(x, false), labels, tmp);
      p.value->data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p.grad->data()[i], numeric, tol) << p.name << "[" << i << "]";
    }
  }
}

TEST(Gradients, DenseStackMatchesFiniteDifferences) {
  Rng rng(8);
  Sequential model;
  model.set_front(std::make_unique<Flatten>());
  model.add(Dense(10, 8, Activation::Elu, rng));
  model.add(Dense(8, 3, Activation::Linear, rng));

  Tensor3 x(4, 5, 2);
  for (auto& v : x.v) v = static_cast<float>(rng.normal(0.0, 1.0));
  check_model_gradients(model, x, {0, 1, 2, 1}, 2e-2);
}

TEST(Gradients, LstmMatchesFiniteDifferences) {
  Rng rng(9);
  Sequential model;
  model.set_front(std::make_unique<Lstm>(3, 6, Activation::Tanh, /*dropout=*/0.0, rng));
  model.add(Dense(6, 3, Activation::Linear, rng));

  Tensor3 x(3, 4, 3);
  for (auto& v : x.v) v = static_cast<float>(rng.normal(0.0, 1.0));
  check_model_gradients(model, x, {2, 0, 1}, 2e-2);
}

TEST(Gradients, LstmWithEluCellMatchesFiniteDifferences) {
  Rng rng(10);
  Sequential model;
  model.set_front(std::make_unique<Lstm>(2, 5, Activation::Elu, 0.0, rng));
  model.add(Dense(5, 3, Activation::Linear, rng));
  Tensor3 x(2, 5, 2);
  for (auto& v : x.v) v = static_cast<float>(rng.normal(0.0, 0.8));
  check_model_gradients(model, x, {1, 2}, 2e-2);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize ||w - target||^2 through the Param interface.
  Mat w(1, 4, 0.0f), g(1, 4);
  const float target[4] = {1.0f, -2.0f, 0.5f, 3.0f};
  Adam adam(0.05);
  std::vector<Param> params{{"w", &w, &g}};
  for (int step = 0; step < 500; ++step) {
    for (int i = 0; i < 4; ++i) g.at(0, i) = 2.0f * (w.at(0, i) - target[i]);
    adam.step(params);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.at(0, i), target[i], 1e-2);
    EXPECT_EQ(g.at(0, i), 0.0f);  // gradients consumed
  }
}

TEST(Metrics, ConfusionMathManual) {
  ConfusionMatrix cm;
  // truth 0: 8 correct, 2 as class 1; truth 1: 3 correct, 1 as 2; truth 2: 2 correct.
  for (int i = 0; i < 8; ++i) cm.add(0, 0);
  cm.add(0, 1);
  cm.add(0, 1);
  for (int i = 0; i < 3; ++i) cm.add(1, 1);
  cm.add(1, 2);
  cm.add(2, 2);
  cm.add(2, 2);
  EXPECT_EQ(cm.total(), 16u);
  EXPECT_NEAR(cm.accuracy(), 13.0 / 16.0, 1e-12);
  EXPECT_NEAR(cm.recall(0), 0.8, 1e-12);
  EXPECT_NEAR(cm.precision(1), 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(cm.recall(2), 1.0, 1e-12);
  EXPECT_NEAR(cm.precision(2), 2.0 / 3.0, 1e-12);
  const auto r = cm.per_class_recall();
  EXPECT_NEAR(r[1], 0.75, 1e-12);
  EXPECT_FALSE(cm.render().empty());
}

TEST(Metrics, ComputeMetricsEndToEnd) {
  const std::vector<std::uint8_t> truth{0, 0, 1, 1, 2, 2};
  const std::vector<std::uint8_t> pred{0, 1, 1, 1, 2, 0};
  const Metrics m = compute_metrics(truth, pred);
  EXPECT_NEAR(m.accuracy, 4.0 / 6.0, 1e-12);
  EXPECT_GT(m.f1, 0.0);
  EXPECT_THROW(compute_metrics(truth, {0, 1}), std::invalid_argument);
}

TEST(Serialize, WeightRoundTripPreservesPredictions) {
  Rng rng(12);
  Sequential model = make_mlp_model(5, 6, rng);
  Tensor3 x(8, 5, 6);
  Rng xr(13);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  const auto pred_before = model.predict(x);

  const std::string path =
      (std::filesystem::temp_directory_path() / "is2_weights.h5l").string();
  save_weights(model, path);

  Rng rng2(999);  // different init
  Sequential model2 = make_mlp_model(5, 6, rng2);
  load_weights(model2, path);
  EXPECT_EQ(model2.predict(x), pred_before);
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(14);
  Sequential mlp = make_mlp_model(5, 6, rng);
  Sequential lstm = make_lstm_model(5, 6, rng);
  const auto file = weights_to_file(mlp);
  EXPECT_THROW(weights_from_file(lstm, file), is2::h5::H5Error);
}

TEST(Model, ParamCountsMatchArchitectures) {
  Rng rng(15);
  Sequential mlp = make_mlp_model(5, 6, rng);
  // Flatten(30) -> Dense(32) -> Dense(3): 30*32+32 + 32*3+3 = 1091.
  EXPECT_EQ(mlp.param_count(), 1091u);
  Sequential lstm = make_lstm_model(5, 6, rng);
  // LSTM(16): 4*16*(6+16)+4*16 = 1472; dense stack 32,96,32,16,112,48,64,3.
  const std::size_t dense = (16 * 32 + 32) + (32 * 96 + 96) + (96 * 32 + 32) + (32 * 16 + 16) +
                            (16 * 112 + 112) + (112 * 48 + 48) + (48 * 64 + 64) + (64 * 3 + 3);
  EXPECT_EQ(lstm.param_count(), 1472u + dense);
}

}  // namespace
