// Sequential model: a sequence front end (Flatten or LSTM) followed by a
// Dense stack, with Keras-like fit/evaluate/predict, plus factory
// functions for the paper's two exact architectures.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace is2::nn {

/// Training/evaluation dataset: sequence windows + center labels.
struct Dataset {
  Tensor3 x;                         ///< [n, time, features]
  std::vector<std::uint8_t> y;       ///< class per window

  std::size_t size() const { return y.size(); }
  /// Split into [0, n*frac) and [n*frac, n); caller shuffles beforehand.
  std::pair<Dataset, Dataset> split(double frac) const;
  /// Row subset by index list.
  Dataset subset(const std::vector<std::size_t>& indices) const;
};

struct EpochStats {
  double loss = 0.0;
  double wall_s = 0.0;
  std::size_t samples = 0;
};

struct FitConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 32;
  std::uint64_t shuffle_seed = 17;
  bool verbose = false;
  /// Called after each batch's backward pass, before the optimizer step —
  /// the hook the distributed trainer uses to all-reduce gradients.
  std::function<void(const std::vector<Param>&)> grad_hook;
  /// Called after each epoch.
  std::function<void(std::size_t epoch, const EpochStats&)> epoch_hook;
};

class Sequential {
 public:
  Sequential() = default;

  void set_front(std::unique_ptr<FrontEnd> front) { front_ = std::move(front); }
  void add(Dense layer) { layers_.push_back(std::move(layer)); }

  /// Per-layer parameter group callback used by the gradient-ready hooks.
  using ParamGroupFn = std::function<void(const std::vector<Param>&)>;

  /// Forward through front end + stack; returns logits [batch, classes].
  const Mat& forward(const Tensor3& x, bool training);
  /// Backward from dL/dlogits; accumulates all parameter grads.
  void backward(const Mat& grad_logits);
  /// As backward(), additionally invoking `on_params_ready` with each
  /// parameterized layer's params the moment that layer's gradients are
  /// final (reverse layer order, front end last). The seam the distributed
  /// trainer's bucketed all-reduce overlaps on: gradients of layers near
  /// the loss start reducing while backpropagation is still descending.
  void backward(const Mat& grad_logits, const ParamGroupFn& on_params_ready);
  /// Invoke `fn` with each parameterized layer's params in exactly the
  /// order backward() reports them ready — what a rank with an empty shard
  /// tail uses to keep its collective sequence aligned with the others.
  void visit_params_backward(const ParamGroupFn& fn);

  std::vector<Param> params();
  /// Total scalar parameter count.
  std::size_t param_count();

  /// Mini-batch training loop.
  std::vector<EpochStats> fit(const Dataset& train, const FocalLoss& loss, Adam& optimizer,
                              const FitConfig& config);

  /// Argmax predictions.
  std::vector<std::uint8_t> predict(const Tensor3& x, std::size_t batch_size = 256);
  /// Allocation-free variant: writes one class per window into out[0, x.n).
  /// Each window's logits depend only on its own row, so predictions are
  /// identical for any batch_size (and any contiguous partition of x).
  void predict_into(const Tensor3& x, std::uint8_t* out, std::size_t batch_size = 256);
  /// Metrics on a labeled dataset.
  Metrics evaluate(const Dataset& data, std::size_t batch_size = 256);

 private:
  std::unique_ptr<FrontEnd> front_;
  std::vector<Dense> layers_;
  Tensor3 predict_scratch_;  ///< batch staging buffer reused by predict_into
};

/// The paper's LSTM model: LSTM(16, ELU, dropout 0.2) followed by Dense
/// layers of 32, 96, 32, 16, 112, 48, 64 units (ELU) and a softmax(3) head
/// (softmax itself lives in the loss; the head outputs logits).
Sequential make_lstm_model(std::size_t time_steps, std::size_t features, util::Rng& rng);

/// The paper's MLP: flattened input, Dense(32, ReLU), logits(3).
Sequential make_mlp_model(std::size_t time_steps, std::size_t features, util::Rng& rng);

/// Build sequence windows of length `window` (odd) around each segment from
/// per-beam feature rows; label = center segment's label. Segments labeled
/// Unknown are skipped. `beams` is a list of (features, labels) per beam so
/// windows never straddle beam boundaries.
struct WindowedData {
  Dataset data;
  std::vector<std::size_t> source_index;  ///< center row index per window
};

WindowedData make_windows(
    const std::vector<std::vector<float>>& beam_features,  // per beam: n*kDim floats
    const std::vector<std::vector<std::uint8_t>>& beam_labels, std::size_t feature_dim,
    std::size_t window, bool keep_unknown = false);

}  // namespace is2::nn
