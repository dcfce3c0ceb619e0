// Training-loop tests: both paper architectures learn synthetic sequence
// tasks; window assembly; dataset plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/model.hpp"

namespace {

using namespace is2::nn;
using is2::util::Rng;

/// Three-class sequence task with temporal structure: class depends on the
/// trend of feature 0 across the window (rising / flat / falling), which a
/// recurrent model can read off cleanly.
Dataset make_sequence_task(std::size_t n, std::uint64_t seed, double noise = 0.25) {
  Rng rng(seed);
  Dataset d;
  d.x = Tensor3(n, 5, 6);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    const double slope = cls == 0 ? 0.5 : cls == 1 ? 0.0 : -0.5;
    const double base = rng.normal(0.0, 0.4);
    for (std::size_t t = 0; t < 5; ++t) {
      float* row = d.x.at(i, t);
      row[0] = static_cast<float>(base + slope * static_cast<double>(t) + rng.normal(0.0, noise));
      for (int f = 1; f < 6; ++f) row[f] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    d.y[i] = cls;
  }
  return d;
}

TEST(Training, LstmLearnsTemporalTask) {
  const Dataset train = make_sequence_task(3'000, 1);
  const Dataset test = make_sequence_task(600, 2);
  Rng rng(3);
  Sequential model = make_lstm_model(5, 6, rng);
  Adam adam(0.003);
  FocalLoss loss(2.0);
  FitConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  const auto history = model.fit(train, loss, adam, cfg);
  ASSERT_EQ(history.size(), 8u);
  EXPECT_LT(history.back().loss, history.front().loss);
  const Metrics m = model.evaluate(test);
  EXPECT_GT(m.accuracy, 0.9);
}

TEST(Training, MlpLearnsSameTask) {
  const Dataset train = make_sequence_task(3'000, 4);
  const Dataset test = make_sequence_task(600, 5);
  Rng rng(6);
  Sequential model = make_mlp_model(5, 6, rng);
  Adam adam(0.003);
  FocalLoss loss(0.0);
  FitConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 32;
  model.fit(train, loss, adam, cfg);
  EXPECT_GT(model.evaluate(test).accuracy, 0.85);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
  const Dataset train = make_sequence_task(1'500, 7);
  Rng rng(8);
  Sequential model = make_mlp_model(5, 6, rng);
  Adam adam(0.003);
  FocalLoss loss(0.0);
  FitConfig cfg;
  cfg.epochs = 6;
  const auto history = model.fit(train, loss, adam, cfg);
  double first_half = 0.0, second_half = 0.0;
  for (std::size_t i = 0; i < 3; ++i) first_half += history[i].loss;
  for (std::size_t i = 3; i < 6; ++i) second_half += history[i].loss;
  EXPECT_LT(second_half, first_half);
}

TEST(Training, GradHookCalledPerBatch) {
  const Dataset train = make_sequence_task(320, 9);
  Rng rng(10);
  Sequential model = make_mlp_model(5, 6, rng);
  Adam adam(0.003);
  FocalLoss loss(0.0);
  FitConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 32;
  std::size_t calls = 0;
  cfg.grad_hook = [&](const std::vector<Param>&) { ++calls; };
  model.fit(train, loss, adam, cfg);
  EXPECT_EQ(calls, 2u * (320 / 32));
}

TEST(Training, DeterministicWithSameSeeds) {
  const Dataset train = make_sequence_task(800, 11);
  const Dataset test = make_sequence_task(200, 12);
  auto run = [&] {
    Rng rng(13);
    Sequential model = make_lstm_model(5, 6, rng);
    Adam adam(0.003);
    FocalLoss loss(2.0);
    FitConfig cfg;
    cfg.epochs = 2;
    cfg.shuffle_seed = 5;
    model.fit(train, loss, adam, cfg);
    return model.predict(test.x);
  };
  EXPECT_EQ(run(), run());
}

TEST(Dataset, SplitAndSubset) {
  Dataset d = make_sequence_task(100, 14);
  const auto [a, b] = d.split(0.8);
  EXPECT_EQ(a.size(), 80u);
  EXPECT_EQ(b.size(), 20u);
  EXPECT_EQ(a.x.v[0], d.x.v[0]);
  EXPECT_EQ(b.y[0], d.y[80]);

  const Dataset sub = d.subset({5, 7});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.y[0], d.y[5]);
  EXPECT_EQ(sub.y[1], d.y[7]);
  for (std::size_t j = 0; j < d.x.sample_size(); ++j)
    EXPECT_EQ(sub.x.v[j], d.x.v[5 * d.x.sample_size() + j]);
}

TEST(Windows, CenterLabelAndSkipUnknown) {
  // One beam, 7 segments, feature = index; window 3.
  std::vector<std::vector<float>> feats(1);
  std::vector<std::vector<std::uint8_t>> labels(1);
  for (int i = 0; i < 7; ++i) {
    feats[0].push_back(static_cast<float>(i));
    labels[0].push_back(i == 3 ? 255 : static_cast<std::uint8_t>(i % 3));
  }
  const auto w = make_windows(feats, labels, 1, 3, /*keep_unknown=*/false);
  // Centers 1,2,4,5 are usable (0 and 6 are edges, 3 is Unknown).
  ASSERT_EQ(w.data.size(), 4u);
  EXPECT_EQ(w.source_index[0], 1u);
  EXPECT_EQ(w.data.y[0], 1);
  // Window content around center 1 is [0,1,2].
  EXPECT_FLOAT_EQ(w.data.x.at(0, 0)[0], 0.0f);
  EXPECT_FLOAT_EQ(w.data.x.at(0, 2)[0], 2.0f);

  const auto all = make_windows(feats, labels, 1, 3, /*keep_unknown=*/true);
  EXPECT_EQ(all.data.size(), 5u);
}

TEST(Windows, NeverStraddleBeams) {
  std::vector<std::vector<float>> feats{{0, 1, 2}, {10, 11, 12}};
  std::vector<std::vector<std::uint8_t>> labels{{0, 0, 0}, {1, 1, 1}};
  const auto w = make_windows(feats, labels, 1, 3, false);
  ASSERT_EQ(w.data.size(), 2u);  // one center per beam
  EXPECT_FLOAT_EQ(w.data.x.at(0, 0)[0], 0.0f);
  EXPECT_FLOAT_EQ(w.data.x.at(1, 0)[0], 10.0f);
  EXPECT_EQ(w.data.y[0], 0);
  EXPECT_EQ(w.data.y[1], 1);
}

TEST(Windows, RejectsEvenWindow) {
  std::vector<std::vector<float>> feats{{0, 1}};
  std::vector<std::vector<std::uint8_t>> labels{{0, 0}};
  EXPECT_THROW(make_windows(feats, labels, 1, 4, false), std::invalid_argument);
}

}  // namespace
