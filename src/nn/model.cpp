#include "nn/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace is2::nn {

std::pair<Dataset, Dataset> Dataset::split(double frac) const {
  if (frac < 0.0 || frac > 1.0) throw std::invalid_argument("Dataset::split: bad fraction");
  const auto n1 = static_cast<std::size_t>(static_cast<double>(size()) * frac);
  Dataset a, b;
  a.x = Tensor3(n1, x.t, x.d);
  b.x = Tensor3(size() - n1, x.t, x.d);
  std::copy(x.v.begin(), x.v.begin() + static_cast<std::ptrdiff_t>(n1 * x.sample_size()),
            a.x.v.begin());
  std::copy(x.v.begin() + static_cast<std::ptrdiff_t>(n1 * x.sample_size()), x.v.end(),
            b.x.v.begin());
  a.y.assign(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(n1));
  b.y.assign(y.begin() + static_cast<std::ptrdiff_t>(n1), y.end());
  return {std::move(a), std::move(b)};
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out;
  out.x = Tensor3(indices.size(), x.t, x.d);
  out.y.resize(indices.size());
  const std::size_t ss = x.sample_size();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    std::copy(x.v.begin() + static_cast<std::ptrdiff_t>(indices[i] * ss),
              x.v.begin() + static_cast<std::ptrdiff_t>((indices[i] + 1) * ss),
              out.x.v.begin() + static_cast<std::ptrdiff_t>(i * ss));
    out.y[i] = y[indices[i]];
  }
  return out;
}

const Mat& Sequential::forward(const Tensor3& x, bool training) {
  if (!front_) throw std::logic_error("Sequential: no front end set");
  const Mat* h = &front_->forward(x, training);
  for (auto& layer : layers_) h = &layer.forward(*h, training);
  return *h;
}

void Sequential::backward(const Mat& grad_logits) {
  backward(grad_logits, ParamGroupFn{});
}

void Sequential::backward(const Mat& grad_logits, const ParamGroupFn& on_params_ready) {
  const Mat* g = &grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = &it->backward(*g);
    if (on_params_ready) on_params_ready(it->params());
  }
  front_->backward(*g);
  if (on_params_ready) {
    const auto p = front_->params();
    if (!p.empty()) on_params_ready(p);
  }
}

void Sequential::visit_params_backward(const ParamGroupFn& fn) {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) fn(it->params());
  const auto p = front_->params();
  if (!p.empty()) fn(p);
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  auto fp = front_->params();
  out.insert(out.end(), fp.begin(), fp.end());
  for (auto& layer : layers_) {
    auto lp = layer.params();
    out.insert(out.end(), lp.begin(), lp.end());
  }
  return out;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

std::vector<EpochStats> Sequential::fit(const Dataset& train, const FocalLoss& loss,
                                        Adam& optimizer, const FitConfig& cfg) {
  const std::size_t n = train.size();
  if (n == 0) throw std::invalid_argument("Sequential::fit: empty dataset");
  auto param_list = params();
  optimizer.zero_grad(param_list);

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng shuffle_rng(cfg.shuffle_seed);

  std::vector<EpochStats> history;
  Tensor3 xb;
  std::vector<std::uint8_t> yb;
  Mat grad;

  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    util::Timer timer;
    shuffle_rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < n; start += cfg.batch_size) {
      const std::size_t bsz = std::min(cfg.batch_size, n - start);
      xb = Tensor3(bsz, train.x.t, train.x.d);
      yb.resize(bsz);
      const std::size_t ss = train.x.sample_size();
      for (std::size_t i = 0; i < bsz; ++i) {
        const std::size_t src = order[start + i];
        std::copy(train.x.v.begin() + static_cast<std::ptrdiff_t>(src * ss),
                  train.x.v.begin() + static_cast<std::ptrdiff_t>((src + 1) * ss),
                  xb.v.begin() + static_cast<std::ptrdiff_t>(i * ss));
        yb[i] = train.y[src];
      }

      const Mat& logits = forward(xb, /*training=*/true);
      loss_sum += loss.compute(logits, yb, grad);
      backward(grad);
      if (cfg.grad_hook) cfg.grad_hook(param_list);
      optimizer.step(param_list);
      ++batches;
    }

    EpochStats stats;
    stats.loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
    stats.wall_s = timer.seconds();
    stats.samples = n;
    history.push_back(stats);
    if (cfg.epoch_hook) cfg.epoch_hook(epoch, stats);
    if (cfg.verbose)
      std::fprintf(stderr, "epoch %zu/%zu  loss %.4f  %.2fs\n", epoch + 1, cfg.epochs, stats.loss,
                   stats.wall_s);
  }
  return history;
}

void Sequential::predict_into(const Tensor3& x, std::uint8_t* out, std::size_t batch_size) {
  if (batch_size == 0) throw std::invalid_argument("Sequential::predict: zero batch size");
  const std::size_t ss = x.sample_size();
  // One scratch batch reused across iterations (a member, so repeated calls
  // at the same shape allocate nothing). Each window's logits depend only on
  // its own row, so the batch partition never changes the predictions. A
  // batch that spans all of x skips the staging copy entirely — the serve
  // path assembles exactly-one-batch tensors, which would otherwise pay a
  // second full copy here.
  Tensor3& xb = predict_scratch_;
  for (std::size_t start = 0; start < x.n; start += batch_size) {
    const std::size_t bsz = std::min(batch_size, x.n - start);
    const Mat* logits;
    if (bsz == x.n) {
      logits = &forward(x, /*training=*/false);
    } else {
      xb.resize(bsz, x.t, x.d);
      std::copy(x.v.begin() + static_cast<std::ptrdiff_t>(start * ss),
                x.v.begin() + static_cast<std::ptrdiff_t>((start + bsz) * ss), xb.v.begin());
      logits = &forward(xb, /*training=*/false);
    }
    for (std::size_t i = 0; i < bsz; ++i) {
      const float* row = logits->row(i);
      std::size_t best = 0;
      for (std::size_t c = 1; c < logits->cols(); ++c)
        if (row[c] > row[best]) best = c;
      out[start + i] = static_cast<std::uint8_t>(best);
    }
  }
}

std::vector<std::uint8_t> Sequential::predict(const Tensor3& x, std::size_t batch_size) {
  std::vector<std::uint8_t> out(x.n);
  predict_into(x, out.data(), batch_size);
  return out;
}

Metrics Sequential::evaluate(const Dataset& data, std::size_t batch_size) {
  const auto pred = predict(data.x, batch_size);
  return compute_metrics(data.y, pred);
}

Sequential make_lstm_model(std::size_t time_steps, std::size_t features, util::Rng& rng) {
  (void)time_steps;
  Sequential model;
  model.set_front(std::make_unique<Lstm>(features, 16, Activation::Elu, 0.2, rng));
  const std::size_t widths[] = {32, 96, 32, 16, 112, 48, 64};
  std::size_t prev = 16;
  for (std::size_t w : widths) {
    model.add(Dense(prev, w, Activation::Elu, rng));
    prev = w;
  }
  model.add(Dense(prev, atl03::kNumClasses, Activation::Linear, rng));
  return model;
}

Sequential make_mlp_model(std::size_t time_steps, std::size_t features, util::Rng& rng) {
  Sequential model;
  model.set_front(std::make_unique<Flatten>());
  model.add(Dense(time_steps * features, 32, Activation::Relu, rng));
  model.add(Dense(32, atl03::kNumClasses, Activation::Linear, rng));
  return model;
}

WindowedData make_windows(const std::vector<std::vector<float>>& beam_features,
                          const std::vector<std::vector<std::uint8_t>>& beam_labels,
                          std::size_t feature_dim, std::size_t window, bool keep_unknown) {
  if (beam_features.size() != beam_labels.size())
    throw std::invalid_argument("make_windows: beam count mismatch");
  if (window % 2 == 0) throw std::invalid_argument("make_windows: window must be odd");
  const std::size_t half = window / 2;

  // First pass: count windows.
  std::size_t count = 0;
  for (std::size_t b = 0; b < beam_features.size(); ++b) {
    const std::size_t n = beam_labels[b].size();
    if (beam_features[b].size() != n * feature_dim)
      throw std::invalid_argument("make_windows: feature/label size mismatch");
    if (n < window) continue;
    for (std::size_t i = half; i + half < n; ++i)
      if (keep_unknown || beam_labels[b][i] < atl03::kNumClasses) ++count;
  }

  WindowedData out;
  out.data.x = Tensor3(count, window, feature_dim);
  out.data.y.resize(count);
  out.source_index.resize(count);

  std::size_t w = 0;
  for (std::size_t b = 0; b < beam_features.size(); ++b) {
    const std::size_t n = beam_labels[b].size();
    if (n < window) continue;
    for (std::size_t i = half; i + half < n; ++i) {
      if (!keep_unknown && beam_labels[b][i] >= atl03::kNumClasses) continue;
      float* dst = out.data.x.at(w, 0);
      const float* src = beam_features[b].data() + (i - half) * feature_dim;
      std::copy(src, src + window * feature_dim, dst);
      out.data.y[w] = beam_labels[b][i];
      out.source_index[w] = i;
      ++w;
    }
  }
  return out;
}

}  // namespace is2::nn
