#include "pipeline/classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "pipeline/fingerprint.hpp"

namespace is2::pipeline {

using atl03::SurfaceClass;

namespace {

/// Standardize feature rows into a flat [n * kDim] buffer. Shared by both
/// window-classification paths so the serve-vs-batch bit-identity contract
/// cannot drift.
std::vector<float> standardize_rows(const std::vector<resample::FeatureRow>& features,
                                    const resample::FeatureScaler& scaler) {
  constexpr int kDim = resample::FeatureRow::kDim;
  std::vector<float> scaled(features.size() * kDim);
  for (std::size_t i = 0; i < features.size(); ++i)
    for (int d = 0; d < kDim; ++d)
      scaled[i * kDim + d] = (features[i].v[d] - scaler.mean[d]) / scaler.std[d];
  return scaled;
}

/// Per-window predictions -> per-segment classes: each window's prediction
/// lands on its center segment, edge segments inherit the nearest interior
/// prediction. `pred` has n - window + 1 entries.
std::vector<SurfaceClass> centers_with_edge_fill(const std::uint8_t* pred, std::size_t n,
                                                 std::size_t window) {
  std::vector<SurfaceClass> out(n, SurfaceClass::Unknown);
  const std::size_t half = window / 2;
  const std::size_t n_windows = n - window + 1;
  for (std::size_t w = 0; w < n_windows; ++w)
    out[w + half] = static_cast<SurfaceClass>(pred[w]);
  for (std::size_t i = 0; i < half; ++i) out[i] = out[half];
  for (std::size_t i = n - half; i < n; ++i) out[i] = out[n - half - 1];
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// classify_windows
// ---------------------------------------------------------------------------

std::vector<SurfaceClass> classify_windows(nn::Sequential& model,
                                           const resample::FeatureScaler& scaler,
                                           const std::vector<resample::FeatureRow>& features,
                                           std::size_t window, std::size_t batch_windows) {
  const std::size_t n = features.size();
  if (window == 0 || n < window) return std::vector<SurfaceClass>(n, SurfaceClass::Unknown);

  // Standardize and window.
  const std::vector<float> scaled = standardize_rows(features, scaler);
  const std::size_t n_windows = n - window + 1;
  nn::Tensor3 x(n_windows, window, resample::FeatureRow::kDim);
  for (std::size_t w = 0; w < n_windows; ++w)
    std::copy(scaled.begin() + static_cast<std::ptrdiff_t>(w * resample::FeatureRow::kDim),
              scaled.begin() +
                  static_cast<std::ptrdiff_t>((w + window) * resample::FeatureRow::kDim),
              x.at(w, 0));

  const auto pred = model.predict(x, batch_windows);
  return centers_with_edge_fill(pred.data(), n, window);
}

// ---------------------------------------------------------------------------
// NnBackend
// ---------------------------------------------------------------------------

NnBackend::NnBackend(ModelFactory factory, resample::FeatureScaler scaler, std::size_t window,
                     std::size_t replicas, std::size_t batch_windows,
                     std::size_t inference_threads, std::uint64_t weights_version)
    : scaler_(scaler),
      window_(window),
      batch_windows_(batch_windows ? batch_windows : 256),
      weights_version_(weights_version) {
  if (!factory) throw std::invalid_argument("NnBackend: null model factory");
  if (window_ == 0) throw std::invalid_argument("NnBackend: zero window");
  // Sized callers + inference_threads so every concurrent classify() and
  // every inference-pool span can hold one replica without deadlock
  // (holders always return their replica).
  const std::size_t n = (replicas ? replicas : 1) + inference_threads;
  replicas_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    replicas_.push_back(std::make_unique<nn::Sequential>(factory()));
  if (inference_threads > 0)
    inference_pool_ = std::make_unique<util::ThreadPool>(inference_threads);
}

std::uint64_t NnBackend::fingerprint() const {
  std::uint64_t h = 0x4E4EBAC0ULL;  // arbitrary backend domain tag
  h = fp_mix(h, weights_version_);
  h = fp_mix(h, static_cast<std::uint64_t>(window_));
  // The scaler changes predictions as surely as the weights do: a refit
  // scaler must be a new cache identity even when model_version is not
  // bumped, or persistent disk-tier products go stale undetected.
  for (int d = 0; d < resample::FeatureRow::kDim; ++d) {
    h = fp_mix(h, static_cast<double>(scaler_.mean[d]));
    h = fp_mix(h, static_cast<double>(scaler_.std[d]));
  }
  return h;
}

std::unique_ptr<nn::Sequential> NnBackend::checkout_replica() {
  util::MutexLock lock(replica_mutex_);
  // Explicit wait loop (not a predicate lambda): the thread-safety analysis
  // only accepts guarded reads it can see under the held lock.
  while (replicas_.empty()) replica_cv_.wait(lock);
  std::unique_ptr<nn::Sequential> model = std::move(replicas_.back());
  replicas_.pop_back();
  return model;
}

void NnBackend::return_replica(std::unique_ptr<nn::Sequential> model) {
  {
    util::MutexLock lock(replica_mutex_);
    replicas_.push_back(std::move(model));
  }
  replica_cv_.notify_one();
}

std::uint64_t NnBackend::classify_span(const float* scaled, std::size_t w_begin,
                                       std::size_t w_end, std::uint8_t* pred) {
  const std::size_t window = window_;
  constexpr int kDim = resample::FeatureRow::kDim;
  const std::size_t batch = batch_windows_;

  // Check a model replica out of the pool (inference mutates Sequential state).
  std::unique_ptr<nn::Sequential> model = checkout_replica();
  std::uint64_t batches = 0;
  try {
    nn::Tensor3 x;  // staging buffer, reused across this span's batches
    for (std::size_t w0 = w_begin; w0 < w_end; w0 += batch) {
      const std::size_t rows = std::min(batch, w_end - w0);
      x.resize(rows, window, kDim);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t w = w0 + r;
        std::copy(scaled + w * kDim, scaled + (w + window) * kDim, x.at(r, 0));
      }
      model->predict_into(x, pred + w0, rows);  // one forward pass
      ++batches;
    }
  } catch (...) {
    return_replica(std::move(model));
    throw;
  }
  return_replica(std::move(model));
  return batches;
}

std::vector<SurfaceClass> NnBackend::classify(
    const std::vector<resample::FeatureRow>& features) {
  const std::size_t window = window_;
  const std::size_t n = features.size();
  if (n < window || window == 0) return std::vector<SurfaceClass>(n, SurfaceClass::Unknown);

  // Standardize once (same helper as classify_windows: bit-identical).
  const std::vector<float> scaled = standardize_rows(features, scaler_);
  const std::size_t n_windows = n - window + 1;
  const std::size_t batch = batch_windows_;

  std::vector<std::uint8_t> pred(n_windows);
  std::uint64_t batches = 0;

  // Batch-level parallelism: one call's windows fan out over the internal
  // inference pool in contiguous spans, each on its own model replica.
  // Every window's logits depend only on its own row, so the partition
  // never changes the predictions — span results are bit-identical to the
  // serial path for any span count. Spans are batch-aligned so parallelism
  // doesn't change batch shapes (and therefore per-batch scratch reuse).
  std::size_t spans = 1;
  if (inference_pool_) {
    const std::size_t full_batches = (n_windows + batch - 1) / batch;
    spans = std::min(inference_pool_->size(), full_batches);
  }
  if (spans <= 1) {
    batches = classify_span(scaled.data(), 0, n_windows, pred.data());
  } else {
    const std::size_t batches_per_span = (n_windows + batch * spans - 1) / (batch * spans);
    const std::size_t span_stride = batches_per_span * batch;
    std::atomic<std::uint64_t> batch_count{0};
    inference_pool_->parallel_for(spans, [&](std::size_t s) {
      const std::size_t w_begin = s * span_stride;
      if (w_begin >= n_windows) return;
      const std::size_t w_end = std::min(w_begin + span_stride, n_windows);
      batch_count.fetch_add(classify_span(scaled.data(), w_begin, w_end, pred.data()),
                            std::memory_order_relaxed);
    });
    batches = batch_count.load();
  }

  batches_.fetch_add(batches, std::memory_order_relaxed);
  windows_.fetch_add(n_windows, std::memory_order_relaxed);

  return centers_with_edge_fill(pred.data(), n, window);
}

// ---------------------------------------------------------------------------
// DecisionTreeBackend
// ---------------------------------------------------------------------------

DecisionTreeBackend::DecisionTreeBackend(baseline::DecisionTree tree) : tree_(std::move(tree)) {
  if (!tree_.trained())
    throw std::invalid_argument("DecisionTreeBackend: tree must be fitted before serving");
  std::uint64_t h = 0x7EEE0001ULL;  // arbitrary backend domain tag
  fingerprint_ = fp_mix(h, tree_.structure_hash());
}

std::vector<SurfaceClass> DecisionTreeBackend::classify(
    const std::vector<resample::FeatureRow>& features) {
  std::vector<SurfaceClass> out(features.size(), SurfaceClass::Unknown);
  for (std::size_t i = 0; i < features.size(); ++i)
    out[i] = static_cast<SurfaceClass>(tree_.predict(features[i].v));
  return out;
}

}  // namespace is2::pipeline
