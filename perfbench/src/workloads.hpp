// Entry points of the three workloads and the input generator, plus the
// training-data preparation that `datagen` (the serve model) and
// `train_dist` (its set-up) share.
#pragma once

#include "common.hpp"
#include "core/pipeline.hpp"
#include "pipeline/product_builder.hpp"

namespace perf {

/// Executors of batch_freeboard's map-reduce engine (2 executors × 2 cores).
inline constexpr std::size_t kBatchExecutors = 2;

/// Sea-surface methods a serve key can name (seasurface::Method 0..3);
/// datagen writes a reference product for each.
inline constexpr int kSeaSurfaceMethods = 4;

/// Writes the shard set, rasters and drifts for `opt.seed` into `opt.dir`,
/// plus the reference outputs the chosen workload checks against.
void run_datagen(const Options& opt);

void run_batch(const Options& opt, Result& res);
void run_serve(const Options& opt, Result& res);
void run_train(const Options& opt, Result& res);

/// Auto-labeled training windows from every shard: h5lite load, preprocess
/// -> resample -> FPB through `builder`, S2 overlay labels with the pair's
/// drift, then standardized 5-segment windows split 80/20. With a recorder,
/// each call gets a span under (`op`, `parent`); with `res`, the segment
/// and labeled-segment counts are added to its counters.
is2::core::TrainingData training_data(const Inputs& in,
                                      const is2::pipeline::ProductBuilder& builder,
                                      SpanRecorder* rec = nullptr, std::uint32_t op = 0,
                                      std::uint32_t parent = 0, Result* res = nullptr);

/// Cache-key label of a serve request, as written in the reference file:
/// `<granule>/<beam>/<kind>/<method>` (method `-` for classification, which
/// is method-agnostic).
std::string serve_key_label(const std::string& granule, int beam, int kind, int method);

}  // namespace perf
