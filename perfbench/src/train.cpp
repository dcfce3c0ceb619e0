// train_dist: `dist::train_distributed` on the paper's LSTM, 2 ranks × batch
// 32 (2 rank threads + 2 comm workers). Set-up auto-labels every shard and
// windows the result — the training data preparation a user pays before the
// first step — then warms up on a subsample. The timed window repeats an
// identical 2-epoch training call until --seconds have passed; a step is
// rank 0's time between batch boundaries, seen through
// `TrainerConfig::sample_hook`.
//
// Traced, the rank loop is driven by benchmark code through the public
// calls `train_distributed` is made of (Sequential::forward,
// FocalLoss::compute, Sequential::backward with the grads_ready hook,
// DistributedOptimizer::step), one span per call; its final weights must
// equal the library call's bit for bit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>

#include "dist/hvd.hpp"
#include "dist/trainer.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perf {

using namespace is2;

namespace {

constexpr int kRanks = 2;
constexpr std::size_t kBatchPerRank = 32;
constexpr int kSetupReps = 3;
/// Epochs per timed training call (~1.5 s each at this dataset size).
constexpr std::size_t kEpochsPerCall = 2;
/// Training windows of the warm-up call, and test windows it evaluates.
constexpr std::size_t kWarmupWindows = 4096;
constexpr std::size_t kWarmupTest = 256;
/// Test accuracy the trained model must reach (auto-labels are noisy; a
/// working trainer clears this within one epoch).
constexpr double kAccuracyFloor = 0.80;

dist::TrainerConfig trainer_config(std::size_t epochs, std::uint64_t seed) {
  dist::TrainerConfig cfg;
  cfg.ranks = kRanks;
  cfg.epochs = epochs;
  cfg.batch_per_rank = kBatchPerRank;
  cfg.shuffle_seed = util::hash64(seed ^ 0x5B0Full);
  return cfg;
}

nn::Dataset head(const nn::Dataset& d, std::size_t n) {
  std::vector<std::size_t> idx(std::min(n, d.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return d.subset(idx);
}

std::uint64_t weights_hash(nn::Sequential& model) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& p : model.params())
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, p.value->data() + i, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ull;
    }
  return h;
}

/// Rank-0 batch boundaries seen through the trainer's sample hook: a step
/// starts whenever rank 0 takes the first sample of its slice.
class StepClock {
 public:
  void on_sample(int rank, std::size_t epoch) {
    if (rank != 0) return;  // only rank 0's thread writes the fields below
    if (epoch != epoch_) {
      epoch_ = epoch;
      taken_ = 0;
    }
    if (taken_++ % kBatchPerRank != 0) return;
    starts_.push_back(now_ns());
    // Sample the process's thread count once, mid-training.
    if (starts_.size() == 64) threads_ = process_threads();
  }
  int threads_seen() const { return threads_; }
  /// Durations between consecutive boundaries (the last step has no end).
  std::vector<double> step_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < starts_.size(); ++i)
      out.push_back(ms_between(starts_[i - 1], starts_[i]));
    return out;
  }
  /// Seconds from the first boundary to the last.
  double span_s() const {
    return starts_.size() < 2 ? 0.0 : ms_between(starts_.front(), starts_.back()) * 1e-3;
  }

 private:
  std::size_t epoch_ = ~std::size_t{0};
  std::size_t taken_ = 0;
  std::vector<std::int64_t> starts_;
  int threads_ = 0;
};

/// `dist::train_distributed`'s rank loop driven through its public calls,
/// one span per call. Replicates the library's arithmetic exactly (shuffle
/// stream, slices, weights, bucket sequence), so rank 0's final replica is
/// bit-identical to the library call's. Rank-0 step durations go to op_ms.
nn::Sequential traced_train(const dist::ModelFactory& factory, const nn::Dataset& train,
                            const dist::TrainerConfig& cfg, std::size_t call, SpanRecorder& rec,
                            std::vector<double>& op_ms, std::size_t* floats_reduced) {
  const int R = cfg.ranks;
  const std::size_t n = train.size();
  const auto global_batch = static_cast<std::size_t>(R) * cfg.batch_per_rank;
  const std::size_t bucket_floats =
      cfg.bucket_floats ? cfg.bucket_floats : dist::DistributedOptimizer::kDefaultBucketFloats;
  auto ctx = dist::init(R, cfg.recv_timeout_ms);
  std::vector<nn::Sequential> models;
  for (int r = 0; r < R; ++r) models.push_back(factory());
  std::vector<std::size_t> rank_floats(static_cast<std::size_t>(R), 0);

  auto rank_main = [&](int r) {
    const auto ur = static_cast<std::size_t>(r);
    auto& model = models[ur];
    auto params = model.params();
    dist::DistributedOptimizer opt(std::make_unique<nn::Adam>(cfg.learning_rate), ctx, r,
                                   bucket_floats);
    dist::broadcast_parameters(params, *ctx, r, /*root=*/0);
    opt.zero_grad(params);
    nn::FocalLoss loss(cfg.focal_gamma);
    const auto on_grads = [&](const std::vector<nn::Param>& p) { opt.grads_ready(p); };
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    util::Rng shuffle_rng(cfg.shuffle_seed);
    nn::Tensor3 xb;
    std::vector<std::uint8_t> yb;
    nn::Mat grad;
    const std::size_t ss = train.x.sample_size();
    std::size_t step = 0;
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
      shuffle_rng.shuffle(order);
      for (std::size_t start = 0; start < n; start += global_batch, ++step) {
        const std::uint32_t op = rec.next_op();
        Span root(&rec, "dist.step", 0, op);
        root.tag("rank", std::to_string(r));
        root.tag("step", std::to_string(call) + "." + std::to_string(step));
        const std::size_t gbsz = std::min(global_batch, n - start);
        const std::size_t lo = std::min(ur * cfg.batch_per_rank, gbsz);
        const std::size_t hi = std::min(lo + cfg.batch_per_rank, gbsz);
        const std::size_t bsz = hi - lo;
        opt.begin_step(static_cast<double>(bsz) / static_cast<double>(gbsz));
        if (bsz > 0) {
          xb = nn::Tensor3(bsz, train.x.t, train.x.d);
          yb.resize(bsz);
          for (std::size_t i = 0; i < bsz; ++i) {
            const std::size_t src = order[start + lo + i];
            std::copy(train.x.v.begin() + static_cast<std::ptrdiff_t>(src * ss),
                      train.x.v.begin() + static_cast<std::ptrdiff_t>((src + 1) * ss),
                      xb.v.begin() + static_cast<std::ptrdiff_t>(i * ss));
            yb[i] = train.y[src];
          }
          const nn::Mat* logits = nullptr;
          {
            Span s(&rec, "nn.forward", root.id(), op);
            logits = &model.forward(xb, /*training=*/true);
          }
          {
            Span s(&rec, "nn.loss", root.id(), op);
            loss.compute(*logits, yb, grad);
          }
          {
            Span s(&rec, "nn.backward", root.id(), op);
            model.backward(grad, on_grads);
          }
        } else {
          Span s(&rec, "nn.backward", root.id(), op);
          model.visit_params_backward(on_grads);
        }
        {
          Span s(&rec, "dist.step_wait", root.id(), op);
          opt.step(params);
        }
        ctx->samples->inc(bsz);
        const double ms = root.end_ms();
        if (r == 0) op_ms.push_back(ms);
      }
    }
    rank_floats[ur] = opt.floats_reduced();
  };

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(R));
  std::vector<std::thread> threads;
  for (int r = 0; r < R; ++r)
    threads.emplace_back([&, r] {
      try {
        rank_main(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        ctx->comm.abort("rank " + std::to_string(r) + " failed");
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  *floats_reduced = 0;
  for (auto f : rank_floats) *floats_reduced += f;
  return std::move(models[0]);
}

}  // namespace

void run_train(const Options& opt, Result& res) {
  res.threads = check_thread_budget(2 * kRanks, 2 * kRanks);
  res.work_unit = "samples";

  Inputs in;
  core::TrainingData data;
  SpanRecorder rec(opt.trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    data = core::TrainingData{};
    in = Inputs{};
    release_freed_memory();
    const std::int64_t t0 = now_ns();
    const std::uint32_t op = rec.next_op();
    Span root(&rec, "train.setup", 0, op);
    in = load_inputs(opt.dir);
    const core::Campaign campaign(in.config);
    std::unique_ptr<pipeline::ProductBuilder> builder;
    {
      Span s(&rec, "pipeline.builder_ctor", root.id(), op);
      builder = std::make_unique<pipeline::ProductBuilder>(in.config, campaign.corrections());
    }
    const bool count = opt.trace && rep + 1 == kSetupReps;  // counts of one set-up
    data = training_data(in, *builder, &rec, op, root.id(), count ? &res : nullptr);
    // Warm-up: one epoch on a subsample.
    const core::PipelineConfig config = in.config;
    dist::train_distributed([&] { return make_model(config, opt.seed); },
                            head(data.train, kWarmupWindows), head(data.test, kWarmupTest),
                            trainer_config(1, opt.seed));
    root.end_ms();
    res.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }

  const core::PipelineConfig config = in.config;
  const std::uint64_t seed = opt.seed;
  const dist::ModelFactory factory = [config, seed] { return make_model(config, seed); };
  const dist::TrainerConfig cfg = trainer_config(kEpochsPerCall, opt.seed);
  res.info["train_windows"] = std::to_string(data.train.size());
  res.info["test_windows"] = std::to_string(data.test.size());

  // Timed window: identical training calls back to back until --seconds
  // have passed. Every call must reach the accuracy floor and end on the
  // same weights bit for bit (same data, seed and rank count).
  std::vector<double> steps;
  double steps_s = 0.0;
  std::uint64_t weights = 0;
  std::size_t calls = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  do {
    StepClock clock;
    dist::TrainerConfig timed = cfg;
    timed.sample_hook = [&](int rank, std::size_t epoch, std::size_t) {
      clock.on_sample(rank, epoch);
    };
    dist::TrainResult result;
    try {
      result = dist::train_distributed(factory, data.train, data.test, timed);
    } catch (const std::exception& e) {
      ++res.attempted;
      ++res.failed;
      res.fail(std::string("train_distributed threw: ") + e.what());
      continue;
    }
    const std::vector<double> call_steps = clock.step_ms();
    steps.insert(steps.end(), call_steps.begin(), call_steps.end());
    steps_s += clock.span_s();
    res.attempted += call_steps.size();
    if (res.threads.observed == 0) res.threads.observed = clock.threads_seen();
    const double accuracy = result.test_metrics.accuracy;
    const std::uint64_t hash = weights_hash(result.model);
    if (calls++ == 0) {
      weights = hash;
      res.info["test_accuracy"] = std::to_string(accuracy);
      res.info["weights_hash"] = std::to_string(hash);
    }
    if (!(accuracy >= kAccuracyFloor)) {
      ++res.failed;
      res.fail("test accuracy " + std::to_string(accuracy) + " below floor " +
               std::to_string(kAccuracyFloor));
    }
    if (hash != weights) {
      ++res.failed;
      res.fail("training call " + std::to_string(calls) + " ended on different weights");
    }
  } while (now_ns() < deadline);
  res.info["calls"] = std::to_string(calls);

  if (!opt.trace) {
    // The window is rank 0's training steps, first boundary to last within
    // each call: a call's fixed replica set-up and final test evaluation
    // stay out. Every step consumes ranks × batch samples except each
    // epoch's last (< 0.1 % of the steps at this dataset size).
    res.window_s = steps_s;
    res.op_ms = std::move(steps);
    res.work = static_cast<double>(res.op_ms.size() * kRanks * kBatchPerRank);
    return;
  }

  // Traced: the same calls, driven through the rank loop's public calls;
  // each must end on the library call's weights.
  res.untraced_op_ms = std::move(steps);
  std::size_t floats = 0;
  std::size_t traced_calls = 0;
  const std::int64_t t1 = now_ns();
  const std::int64_t traced_deadline = t1 + static_cast<std::int64_t>(opt.seconds * 1e9);
  do {
    std::size_t call_floats = 0;
    nn::Sequential traced =
        traced_train(factory, data.train, cfg, traced_calls, rec, res.op_ms, &call_floats);
    floats += call_floats;
    ++traced_calls;
    if (weights_hash(traced) != weights) {
      ++res.failed;
      res.fail("traced training's final weights differ from train_distributed's");
    }
  } while (now_ns() < traced_deadline);
  res.window_s = ms_between(t1, now_ns()) * 1e-3;
  res.attempted += res.op_ms.size();
  res.work = static_cast<double>(traced_calls * kEpochsPerCall * data.train.size());
  res.counters["dist.steps"] = static_cast<double>(res.op_ms.size());
  res.counters["dist.samples"] = res.work;
  res.counters["dist.allreduce_floats"] = static_cast<double>(floats);
  rec.write_csv(opt.dir + "/spans.csv");
}

}  // namespace perf
