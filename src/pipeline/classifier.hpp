// Classifier backends for the `is2::pipeline` stage graph: the classify
// stage is the one pipeline stage with interchangeable implementations (the
// paper's deep models vs the ATL07-style decision tree; latent-embedding or
// retrieval classifiers slot in the same way), so it hides behind this
// interface and every caller — batch jobs, serve, benches — selects a
// backend per build instead of hard-wiring `nn::Sequential`.
//
// Ownership / threading contract: `classify()` must be safe to call from
// concurrent builds. `NnBackend` owns a checkout pool of model replicas
// (inference mutates Sequential scratch state) plus an optional batch-level
// inference ThreadPool; `DecisionTreeBackend` wraps an immutable fitted tree
// and is trivially concurrent. A backend's `fingerprint()` is part of cache
// identity: it must change whenever the backend would produce different
// classes (weights version, tree structure).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "atl03/types.hpp"
#include "baseline/decision_tree.hpp"
#include "nn/model.hpp"
#include "pipeline/kinds.hpp"
#include "resample/segmenter.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace is2::pipeline {

/// One classifier implementation behind the classify stage. Returns one
/// class per feature row (parallel to the segments the features came from).
class ClassifierBackend {
 public:
  virtual ~ClassifierBackend() = default;

  virtual std::vector<atl03::SurfaceClass> classify(
      const std::vector<resample::FeatureRow>& features) = 0;

  /// Stable backend family (cache key field).
  virtual Backend id() const = 0;
  /// Identity hash of everything that changes predictions: mixed into the
  /// product cache key so retrained weights never serve stale products.
  virtual std::uint64_t fingerprint() const = 0;
  virtual const char* name() const { return backend_name(id()); }
};

/// Sliding-window classification of a feature sequence with one model:
/// standardize, window, batch-predict, center-assign, edge-fill. NnBackend
/// runs the same algorithm over a replica pool (bit-identical predictions).
std::vector<atl03::SurfaceClass> classify_windows(nn::Sequential& model,
                                                  const resample::FeatureScaler& scaler,
                                                  const std::vector<resample::FeatureRow>& features,
                                                  std::size_t window,
                                                  std::size_t batch_windows = 256);

/// The paper's deep-model path: a checkout pool of `nn::Sequential` replicas
/// (every call of the factory must produce numerically identical models) fed
/// batch-aligned window spans, optionally fanned out over an internal
/// inference ThreadPool. Predictions are bit-identical for any replica
/// count, span partition or thread count — windows are row-independent — so
/// concurrency here is purely a latency knob.
class NnBackend : public ClassifierBackend {
 public:
  using ModelFactory = std::function<nn::Sequential()>;

  /// `replicas` bounds concurrent classify() *spans* (callers + inference
  /// threads); `inference_threads` > 0 adds an internal pool that splits one
  /// call's windows across that many extra replicas.
  NnBackend(ModelFactory factory, resample::FeatureScaler scaler, std::size_t window,
            std::size_t replicas = 1, std::size_t batch_windows = 256,
            std::size_t inference_threads = 0, std::uint64_t weights_version = 0);

  std::vector<atl03::SurfaceClass> classify(
      const std::vector<resample::FeatureRow>& features) override;

  Backend id() const override { return Backend::nn; }
  std::uint64_t fingerprint() const override;

  /// Cumulative forward-pass batches / windows classified (serve metrics).
  std::uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  std::uint64_t windows() const { return windows_.load(std::memory_order_relaxed); }

  std::size_t window() const { return window_; }
  const resample::FeatureScaler& scaler() const { return scaler_; }

 private:
  /// Classify windows [w_begin, w_end) into pred (absolute indices) on one
  /// checked-out replica; returns the number of forward-pass batches.
  std::uint64_t classify_span(const float* scaled, std::size_t w_begin, std::size_t w_end,
                              std::uint8_t* pred);
  std::unique_ptr<nn::Sequential> checkout_replica();
  void return_replica(std::unique_ptr<nn::Sequential> model);

  resample::FeatureScaler scaler_;
  std::size_t window_;
  std::size_t batch_windows_;
  std::uint64_t weights_version_;

  util::Mutex replica_mutex_;
  util::CondVar replica_cv_;
  std::vector<std::unique_ptr<nn::Sequential>> replicas_ GUARDED_BY(replica_mutex_);
  std::unique_ptr<util::ThreadPool> inference_pool_;  ///< null when threads == 0

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> windows_{0};
};

/// The classical baseline: a fitted CART tree classifying each segment's
/// feature row independently (no window context, no standardization — tree
/// splits are scale-free). The class of model NASA's ATL07 surface
/// classification uses; dropping it in behind the same interface is the
/// whole point of the backend abstraction.
class DecisionTreeBackend : public ClassifierBackend {
 public:
  explicit DecisionTreeBackend(baseline::DecisionTree tree);

  std::vector<atl03::SurfaceClass> classify(
      const std::vector<resample::FeatureRow>& features) override;

  Backend id() const override { return Backend::decision_tree; }
  /// Hash of the fitted tree structure: retraining changes the fingerprint.
  std::uint64_t fingerprint() const override { return fingerprint_; }

  const baseline::DecisionTree& tree() const { return tree_; }

 private:
  baseline::DecisionTree tree_;
  std::uint64_t fingerprint_;
};

}  // namespace is2::pipeline
