// Input generation, run outside the measured process: the simulated
// campaign (ATL03 granules + segmented Sentinel-2 rasters) for the workload
// seed, written as h5lite shards, plus the reference outputs the workload
// checks every operation against.
#include <cstdio>
#include <filesystem>

#include "h5lite/granule_io.hpp"
#include "mapred/engine.hpp"
#include "nn/serialize.hpp"
#include "pipeline/classifier.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perf {

using namespace is2;

namespace {

/// Table V job on a 1 executor × 1 core engine: the batch reference.
void batch_reference(const Inputs& in, const std::string& dir) {
  const core::Campaign campaign(in.config);
  mapred::Engine engine({1, 1});
  const core::FreeboardJobStats ref = core::run_freeboard_job(
      engine, in.shards, in.rasters, in.drifts, campaign.corrections(), in.config);
  KeyValues kv;
  kv["points"] = std::to_string(ref.points);
  kv["mean_freeboard"] = hex_double(ref.mean_freeboard);
  std::string hist;
  for (std::size_t b = 0; b < ref.distribution.bins(); ++b) {
    if (b) hist += ',';
    hist += std::to_string(ref.distribution.count(b));
  }
  kv["histogram"] = hist;
  kv["histogram_nan"] = std::to_string(ref.distribution.nan_count());
  save_kv(dir + "/batch_reference.txt", kv);
}

/// `<hash>,<resident bytes>` of one reference product.
std::string reference_entry(const serve::GranuleProduct& p) {
  return std::to_string(product_hash(p)) + "," + std::to_string(p.approx_bytes());
}

/// Serve model + one reference product hash per cache key. The model is a
/// short single-process fit on a subsample of the auto-labeled windows:
/// enough that the classes (and so the sea surface and freeboard stages)
/// look like a trained model's.
void serve_reference(const Inputs& in, const std::string& dir) {
  const core::Campaign campaign(in.config);
  const pipeline::ProductBuilder builder(in.config, campaign.corrections());
  core::TrainingData data = training_data(in, builder);

  constexpr std::size_t kFitWindows = 8192;
  if (data.train.size() > kFitWindows) {
    std::vector<std::size_t> idx(kFitWindows);
    for (std::size_t i = 0; i < kFitWindows; ++i) idx[i] = i * (data.train.size() / kFitWindows);
    data.train = data.train.subset(idx);
  }
  nn::Sequential model = make_model(in.config, in.config.seed);
  nn::Adam adam(0.003);
  nn::FocalLoss loss(2.0, nn::FocalLoss::balanced_alpha(data.train.y));
  nn::FitConfig fit;
  fit.epochs = 3;
  fit.batch_size = 32;
  model.fit(data.train, loss, adam, fit);
  nn::save_weights(model, dir + "/serve_weights.h5l");
  save_scaler(data.scaler, dir + "/serve_scaler.txt");

  const std::string weights = dir + "/serve_weights.h5l";
  pipeline::NnBackend backend([&] { return make_model(in.config, in.config.seed, weights); },
                              data.scaler,
                              in.config.sequence_window);
  const serve::ShardIndex index = serve::ShardIndex::build(in.shards.files);
  KeyValues refs;
  for (const auto& [granule, beam] : index.entries()) {
    const atl03::Granule merged = serve::ShardIndex::load_merged(*index.find(granule, beam));
    pipeline::Artifacts art = pipeline::Artifacts::from_beam(merged, merged.beams[0]);
    builder.build(art, pipeline::ProductKind::classification, &backend,
                  seasurface::Method::NasaEquation);
    serve::GranuleProduct cls;
    cls.granule_id = granule;
    cls.beam = beam;
    cls.kind = pipeline::ProductKind::classification;
    cls.segments = art.segments_out();
    cls.classes = art.classes_out();
    refs[serve_key_label(granule, static_cast<int>(beam), 0, -1)] = reference_entry(cls);
    for (int m = 0; m < kSeaSurfaceMethods; ++m) {
      const auto method = static_cast<seasurface::Method>(m);
      pipeline::Artifacts tail = pipeline::Artifacts::resume(cls.segments, cls.classes);
      serve::GranuleProduct p = cls;
      builder.build(tail, pipeline::ProductKind::seasurface, nullptr, method);
      p.kind = pipeline::ProductKind::seasurface;
      p.sea_surface = tail.sea_surface_out();
      refs[serve_key_label(granule, static_cast<int>(beam), 1, m)] = reference_entry(p);
      builder.build(tail, pipeline::ProductKind::freeboard, nullptr, method);
      p.kind = pipeline::ProductKind::freeboard;
      p.freeboard = tail.freeboard_out();
      refs[serve_key_label(granule, static_cast<int>(beam), 2, m)] = reference_entry(p);
    }
  }
  save_kv(dir + "/serve_reference.txt", refs);
}

}  // namespace

std::string serve_key_label(const std::string& granule, int beam, int kind, int method) {
  return granule + "/" + std::to_string(beam) + "/" + std::to_string(kind) + "/" +
         (method < 0 ? std::string("-") : std::to_string(method));
}

core::TrainingData training_data(const Inputs& in, const pipeline::ProductBuilder& builder,
                                 SpanRecorder* rec, std::uint32_t op, std::uint32_t parent,
                                 Result* res) {
  const core::PipelineConfig& config = in.config;
  std::vector<core::LabeledPair> labeled(1);
  std::size_t segments = 0, labeled_segments = 0;
  for (std::size_t i = 0; i < in.shards.files.size(); ++i) {
    atl03::Granule shard;
    {
      Span s(rec, "h5lite.load_granule", parent, op);
      shard = h5::load_granule(in.shards.files[i]);
    }
    pipeline::Artifacts art = pipeline::Artifacts::from_beam(shard, shard.beams.at(0));
    const std::pair<const char*, pipeline::StageId> stages[] = {
        {"atl03.preprocess", pipeline::StageId::preprocess},
        {"resample.resample", pipeline::StageId::resample},
        {"resample.fpb", pipeline::StageId::fpb}};
    for (const auto& [name, id] : stages) {
      Span s(rec, name, parent, op);
      builder.run_until(art, id);
    }
    const std::size_t pair = in.shards.pair_of_file[i];
    label::AutoLabelConfig al = config.autolabel;
    if (al.feature_gap_m < 0.0) al.feature_gap_m = config.segmenter.window_m * 1.5;
    al.seed = config.seed ^ util::hash64(i * 31 + 5);
    al.overlay.shift = in.drifts.at(pair);
    Span s(rec, "label.autolabel", parent, op);
    labeled[0].labeled.push_back(label::auto_label(in.rasters.at(pair), art.take_segments(), al));
    s.end_ms();
    segments += labeled[0].labeled.back().labels.size();
    for (const auto c : labeled[0].labeled.back().labels)
      labeled_segments += c != atl03::SurfaceClass::Unknown;
  }
  if (res) {
    res->counters["resample.segments"] += static_cast<double>(segments);
    res->counters["label.labeled"] += static_cast<double>(labeled_segments);
  }
  return core::assemble_training_data(labeled, config, 0.8, config.seed ^ 0x7A1Dull);
}

void run_datagen(const Options& opt) {
  namespace fs = std::filesystem;
  util::Timer timer;
  fs::create_directories(opt.dir);
  Inputs in;
  const Scale scale = scale_for(opt.workload);
  in.preset = scale.preset;
  in.config = preset_config(in.preset);
  const core::Campaign campaign(in.config);
  core::ShardSet shards;
  for (std::size_t k = 0; k < scale.pairs; ++k) {
    const core::PairDataset pair = campaign.generate(k);
    core::write_shards(pair.granule, k, in.config.chunks_per_beam, opt.dir, shards);
    in.rasters.push_back(pair.s2_labels);
    in.drifts.push_back(pair.pair.true_drift());
    in.photons += pair.granule.total_photons();
  }
  // The seed orders the shard set, and the per-partition label seeds follow
  // the order. Shards only swap places with shards of the same executor
  // (the engine places partition i on executor i % executors), so every
  // seed gives each executor the same shards: the seed varies the labels
  // and the order within an executor, not the executors' load balance.
  std::vector<std::size_t> order(shards.files.size());
  util::Rng rng(util::hash64(opt.seed ^ 0x5A4Dull));
  for (std::size_t e = 0; e < kBatchExecutors; ++e) {
    std::vector<std::size_t> mine;
    for (std::size_t i = e; i < order.size(); i += kBatchExecutors) mine.push_back(i);
    std::vector<std::size_t> shuffled = mine;
    rng.shuffle(shuffled);
    for (std::size_t j = 0; j < mine.size(); ++j) order[mine[j]] = shuffled[j];
  }
  for (const std::size_t i : order) {
    in.shards.files.push_back(shards.files[i]);
    in.shards.pair_of_file.push_back(shards.pair_of_file[i]);
  }
  save_inputs(opt.dir, in);
  const double scene_s = timer.seconds();

  timer.reset();
  if (opt.workload == kBatch) batch_reference(in, opt.dir);
  if (opt.workload == kServe) serve_reference(in, opt.dir);
  std::printf("{\"datagen_s\": %.6f, \"reference_s\": %.6f, \"photons\": %zu, \"shards\": %zu}\n",
              scene_s, timer.seconds(), in.photons, in.shards.files.size());
}

}  // namespace perf
