// Distributed-training substrate tests: ring all-reduce correctness across
// rank counts and buffer sizes, broadcast, distributed optimizer equivalence
// and the synchronous data-parallel trainer — including the sharding edge
// cases (uneven tails, dataset smaller than one global batch), the
// bit-exact ranks=1 fast path and divergent-factory re-alignment — and
// rank counts below one, rejected before anything is sized.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "dist/comm.hpp"
#include "dist/hvd.hpp"
#include "dist/trainer.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace {

using namespace is2;
using dist::Communicator;
using is2::util::Rng;

/// Run fn(rank) on `n` threads and join.
void on_ranks(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) threads.emplace_back([&, r] { fn(r); });
  for (auto& t : threads) t.join();
}

struct AllreduceCase {
  int ranks;
  std::size_t len;
};

class AllreduceSweep : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceSweep, SumMatchesSerialReference) {
  const auto [ranks, len] = GetParam();
  Communicator comm(ranks);
  // Each rank's buffer: deterministic pseudo-random values.
  std::vector<std::vector<float>> bufs(ranks);
  std::vector<float> want(len, 0.0f);
  for (int r = 0; r < ranks; ++r) {
    Rng rng(100 + r);
    bufs[r].resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      bufs[r][i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      want[i] += bufs[r][i];
    }
  }
  on_ranks(ranks, [&](int r) { comm.allreduce_sum(r, bufs[static_cast<std::size_t>(r)]); });
  for (int r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_NEAR(bufs[r][i], want[i], 1e-4) << "rank " << r << " index " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllreduceSweep,
                         ::testing::Values(AllreduceCase{1, 16}, AllreduceCase{2, 1},
                                           AllreduceCase{2, 1024}, AllreduceCase{3, 7},
                                           AllreduceCase{4, 64}, AllreduceCase{6, 1000},
                                           AllreduceCase{8, 333}, AllreduceCase{8, 4096}));

TEST(Comm, AllreduceMeanDividesBySize) {
  const int ranks = 4;
  Communicator comm(ranks);
  std::vector<std::vector<float>> bufs(ranks, std::vector<float>(10, 0.0f));
  for (int r = 0; r < ranks; ++r)
    for (auto& v : bufs[r]) v = static_cast<float>(r + 1);  // 1,2,3,4 -> mean 2.5
  on_ranks(ranks, [&](int r) { comm.allreduce_mean(r, bufs[static_cast<std::size_t>(r)]); });
  for (int r = 0; r < ranks; ++r)
    for (auto v : bufs[r]) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(Comm, BroadcastCopiesRoot) {
  const int ranks = 5;
  Communicator comm(ranks);
  std::vector<std::vector<float>> bufs(ranks, std::vector<float>(8, -1.0f));
  for (std::size_t i = 0; i < 8; ++i) bufs[2][i] = static_cast<float>(i);
  on_ranks(ranks, [&](int r) { comm.broadcast(r, bufs[static_cast<std::size_t>(r)], 2); });
  for (int r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(bufs[r][i], static_cast<float>(i));
}

TEST(Comm, SequentialCollectivesDoNotInterfere) {
  const int ranks = 4;
  Communicator comm(ranks);
  std::vector<std::vector<float>> a(ranks, std::vector<float>(33, 1.0f));
  std::vector<std::vector<float>> b(ranks, std::vector<float>(17, 2.0f));
  on_ranks(ranks, [&](int r) {
    comm.allreduce_sum(r, a[static_cast<std::size_t>(r)]);
    comm.allreduce_sum(r, b[static_cast<std::size_t>(r)]);
  });
  for (int r = 0; r < ranks; ++r) {
    for (auto v : a[r]) EXPECT_FLOAT_EQ(v, 4.0f);
    for (auto v : b[r]) EXPECT_FLOAT_EQ(v, 8.0f);
  }
}

TEST(Comm, BytesPerRankFormula) {
  EXPECT_EQ(Communicator::allreduce_bytes_per_rank(1, 100), 0u);
  // 2*(N-1)/N * n floats * 4 bytes with n=100, N=4 -> 2*3*25*4 = 600.
  EXPECT_EQ(Communicator::allreduce_bytes_per_rank(4, 100), 600u);
}

TEST(Comm, RankCountBelowOneIsRejectedBeforeAnythingIsSized) {
  // The transport once sized its n_ranks^2 channels before checking the
  // count: -100000 ran out of memory and INT_MIN wrapped to 2^62 channels.
  for (const int n : {0, -1, -100000, std::numeric_limits<int>::min()}) {
    SCOPED_TRACE(n);
    EXPECT_THROW(Communicator comm(n), std::invalid_argument);
    EXPECT_THROW(dist::InProcessTransport transport(n), std::invalid_argument);
  }
}

TEST(Hvd, DistributedOptimizerAveragesGradients) {
  // Two ranks with gradients of opposite sign: after the distributed step
  // both replicas must have applied one Adam step on the *average*
  // gradient. Adam's first step is about lr * sign(g), so with same-sign
  // gradients a skipped average would go unnoticed.
  auto ctx = dist::init(2);
  std::vector<nn::Mat> w(2, nn::Mat(1, 4, 1.0f));
  std::vector<nn::Mat> g(2, nn::Mat(1, 4));
  on_ranks(2, [&](int r) {
    for (int i = 0; i < 4; ++i) g[r].at(0, static_cast<std::size_t>(i)) = r == 0 ? 1.0f : -3.0f;
    dist::DistributedOptimizer opt(std::make_unique<nn::Adam>(0.1), ctx, r);
    std::vector<nn::Param> params{{"w", &w[r], &g[r]}};
    opt.step(params);
  });
  nn::Mat w_mean(1, 4, 1.0f), g_mean(1, 4, -1.0f);
  nn::Adam(0.1).step({{"w", &w_mean, &g_mean}});
  for (int r = 0; r < 2; ++r)
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(w[r].at(0, i), w_mean.at(0, i)) << "rank " << r;
}

nn::Dataset toy_task(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  nn::Dataset d;
  d.x = nn::Tensor3(n, 5, 6);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    for (std::size_t t = 0; t < 5; ++t) {
      float* row = d.x.at(i, t);
      for (int f = 0; f < 6; ++f)
        row[f] = static_cast<float>(rng.normal(cls * 1.0, 0.5));
    }
    d.y[i] = cls;
  }
  return d;
}

TEST(Trainer, SingleRankTrainsToHighAccuracy) {
  const auto train = toy_task(2'000, 1);
  const auto test = toy_task(400, 2);
  dist::TrainerConfig cfg;
  cfg.ranks = 1;
  cfg.epochs = 5;
  const auto result = dist::train_distributed(
      [] {
        Rng rng(3);
        return nn::make_mlp_model(5, 6, rng);
      },
      train, test, cfg);
  EXPECT_GT(result.test_metrics.accuracy, 0.9);
  EXPECT_EQ(result.epoch_times_s.size(), 5u);
  EXPECT_GT(result.samples_per_s, 0.0);
}

TEST(Trainer, MultiRankKeepsAccuracy) {
  const auto train = toy_task(2'000, 4);
  const auto test = toy_task(400, 5);
  auto run = [&](int ranks) {
    dist::TrainerConfig cfg;
    cfg.ranks = ranks;
    cfg.epochs = 10;
    return dist::train_distributed(
        [] {
          Rng rng(6);
          return nn::make_mlp_model(5, 6, rng);
        },
        train, test, cfg);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  // Synchronous data parallelism quadruples the effective batch, so a small
  // accuracy drop at equal epochs is expected; it must stay small.
  EXPECT_GT(parallel.test_metrics.accuracy, serial.test_metrics.accuracy - 0.06);
  EXPECT_GT(parallel.floats_reduced, 0u);
}

/// Bitwise equality over two models' full parameter lists.
::testing::AssertionResult weights_identical(nn::Sequential& a, nn::Sequential& b) {
  auto pa = a.params();
  auto pb = b.params();
  if (pa.size() != pb.size())
    return ::testing::AssertionFailure() << "parameter count " << pa.size() << " vs " << pb.size();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].value->size() != pb[i].value->size())
      return ::testing::AssertionFailure() << pa[i].name << " size mismatch";
    if (std::memcmp(pa[i].value->data(), pb[i].value->data(),
                    pa[i].value->size() * sizeof(float)) != 0)
      return ::testing::AssertionFailure() << pa[i].name << " differs bitwise";
  }
  return ::testing::AssertionSuccess();
}

TEST(Hvd, BroadcastParametersAlignsDivergentReplicas) {
  // Three replicas built from different seeds; after the broadcast all must
  // be bitwise copies of rank 0's.
  auto ctx = dist::init(3);
  std::vector<nn::Sequential> models;
  for (int r = 0; r < 3; ++r) {
    Rng rng(50 + static_cast<std::uint64_t>(r));
    models.push_back(nn::make_mlp_model(5, 6, rng));
  }
  EXPECT_FALSE(weights_identical(models[0], models[1]));
  on_ranks(3, [&](int r) {
    auto params = models[static_cast<std::size_t>(r)].params();
    dist::broadcast_parameters(params, *ctx, r, /*root=*/0);
  });
  EXPECT_TRUE(weights_identical(models[0], models[1]));
  EXPECT_TRUE(weights_identical(models[0], models[2]));
}

TEST(Trainer, SingleRankMatchesPlainFitBitExact) {
  // ranks = 1 must be the plain Sequential::fit loop in disguise: same
  // shuffle stream, batch assembly, loss, optimizer and step sequence.
  const auto train = toy_task(500, 20);
  const auto test = toy_task(100, 21);

  dist::TrainerConfig cfg;
  cfg.ranks = 1;
  cfg.epochs = 3;
  cfg.batch_per_rank = 32;
  auto result = dist::train_distributed(
      [] {
        Rng rng(22);
        return nn::make_mlp_model(5, 6, rng);
      },
      train, test, cfg);

  Rng rng(22);
  auto reference = nn::make_mlp_model(5, 6, rng);
  nn::FocalLoss loss(2.0);
  nn::Adam adam(0.003);
  nn::FitConfig fit_cfg;
  fit_cfg.epochs = 3;
  fit_cfg.batch_size = 32;
  reference.fit(train, loss, adam, fit_cfg);

  EXPECT_TRUE(weights_identical(result.model, reference));
}

TEST(Trainer, DatasetSmallerThanGlobalBatch) {
  // 10 samples across 4 ranks × batch 8: one global batch of 10, ranks 0/1
  // get 8/2, ranks 2/3 run empty but stay in the collective sequence.
  const auto train = toy_task(10, 23);
  const auto test = toy_task(50, 24);
  dist::TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.epochs = 2;
  cfg.batch_per_rank = 8;
  std::mutex mu;
  std::vector<std::vector<int>> seen(cfg.epochs, std::vector<int>(train.size(), 0));
  cfg.sample_hook = [&](int, std::size_t epoch, std::size_t sample) {
    std::lock_guard lock(mu);
    ++seen[epoch][sample];
  };
  const auto result = dist::train_distributed(
      [] {
        Rng rng(25);
        return nn::make_mlp_model(5, 6, rng);
      },
      train, test, cfg);
  EXPECT_EQ(result.epoch_times_s.size(), 2u);
  EXPECT_GT(result.floats_reduced, 0u);
  for (std::size_t e = 0; e < cfg.epochs; ++e)
    for (std::size_t i = 0; i < train.size(); ++i)
      EXPECT_EQ(seen[e][i], 1) << "epoch " << e << " sample " << i;
}

TEST(Trainer, UnevenShardTailsConsumeEachSampleOnce) {
  // 135 = 4×32 + 7: the last global batch leaves rank 0 with 7 samples and
  // ranks 1–3 empty. Every sample must be consumed exactly once per epoch.
  const auto train = toy_task(135, 26);
  const auto test = toy_task(50, 27);
  dist::TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.epochs = 3;
  cfg.batch_per_rank = 32;
  std::mutex mu;
  std::vector<std::vector<int>> seen(cfg.epochs, std::vector<int>(train.size(), 0));
  cfg.sample_hook = [&](int, std::size_t epoch, std::size_t sample) {
    std::lock_guard lock(mu);
    ++seen[epoch][sample];
  };
  (void)dist::train_distributed(
      [] {
        Rng rng(28);
        return nn::make_mlp_model(5, 6, rng);
      },
      train, test, cfg);
  for (std::size_t e = 0; e < cfg.epochs; ++e)
    for (std::size_t i = 0; i < train.size(); ++i)
      ASSERT_EQ(seen[e][i], 1) << "epoch " << e << " sample " << i;
}

TEST(Trainer, DivergentFactoryEndsBitIdenticalToRoot) {
  // A factory with hidden state hands every rank a different replica; the
  // trainer's broadcast_parameters must align them to rank 0 (factories run
  // sequentially, rank 0 first), making the run equivalent to a factory
  // that always returns rank 0's model.
  const auto train = toy_task(400, 29);
  const auto test = toy_task(100, 30);
  dist::TrainerConfig cfg;
  cfg.ranks = 4;
  cfg.epochs = 2;

  int calls = 0;
  auto divergent = dist::train_distributed(
      [&] {
        Rng rng(100 + static_cast<std::uint64_t>(calls++));
        return nn::make_mlp_model(5, 6, rng);
      },
      train, test, cfg);
  auto aligned = dist::train_distributed(
      [] {
        Rng rng(100);  // what the divergent factory gave rank 0
        return nn::make_mlp_model(5, 6, rng);
      },
      train, test, cfg);
  EXPECT_TRUE(weights_identical(divergent.model, aligned.model));
}

TEST(Trainer, EpochTimeDropsWithRanks) {
  // Strong-scaling smoke test on a compute-heavy enough workload.
  const auto train = toy_task(4'096, 7);
  const auto test = toy_task(128, 8);
  auto time_for = [&](int ranks) {
    dist::TrainerConfig cfg;
    cfg.ranks = ranks;
    cfg.epochs = 2;
    return dist::train_distributed(
        [] {
          Rng rng(9);
          return nn::make_lstm_model(5, 6, rng);
        },
        train, test, cfg).time_per_epoch_s;
  };
  const double t1 = time_for(1);
  const double t4 = time_for(4);
  EXPECT_LT(t4, t1 * 0.6);
}

}  // namespace
