// Ross Sea November 2019 campaign: reproduces the paper's full workflow over
// all eight Table I coincident pairs — generation, drift-corrected
// auto-labeling, model training, per-track classification and freeboard —
// then prints a campaign summary comparing the 2m product against the
// ATL07/ATL10-style baselines on every track.
//
//   ./examples/ross_sea_campaign [track_km]   (default 12)
#include <cstdio>
#include <cstdlib>

#include "baseline/atl07.hpp"
#include "baseline/atl10.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "freeboard/freeboard.hpp"
#include "pipeline/classifier.hpp"
#include "seasurface/detector.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace is2;

  core::PipelineConfig config = core::PipelineConfig::small();
  if (argc > 1) config.track_length_m = std::atof(argv[1]) * 1000.0;
  else config.track_length_m = 12'000.0;

  core::Campaign campaign(config);
  std::printf("Ross Sea campaign: 8 coincident pairs, %.0f km tracks\n\n",
              config.track_length_m / 1000.0);

  // Stage 1-2: generate and auto-label all pairs.
  std::vector<core::PairDataset> pairs;
  std::vector<core::LabeledPair> labeled;
  for (std::size_t k = 0; k < campaign.pairs().size(); ++k) {
    pairs.push_back(campaign.generate(k));
    labeled.push_back(core::label_pair(pairs.back(), campaign.corrections(), config));
    double acc = 0.0;
    for (const auto& lb : labeled.back().labeled) acc += lb.label_accuracy() / 3.0;
    std::printf("pair %zu (%s): S2 seg acc %.3f, auto-label acc %.3f\n", k + 1,
                pairs.back().pair.granule_id.c_str(), pairs.back().segmentation_accuracy, acc);
  }

  // Stage 3: train the LSTM on the pooled labeled data.
  const core::TrainingData data = core::assemble_training_data(labeled, config);
  std::printf("\ntraining LSTM on %zu windows (test %zu)...\n", data.train.size(),
              data.test.size());
  util::Rng rng(7);
  nn::Sequential model = nn::make_lstm_model(config.sequence_window, 6, rng);
  nn::Adam adam(0.003);
  nn::FocalLoss loss(2.0, nn::FocalLoss::balanced_alpha(data.train.y));
  nn::FitConfig fit;
  fit.epochs = 12;
  model.fit(data.train, loss, adam, fit);
  const nn::Metrics metrics = model.evaluate(data.test);
  std::printf("held-out accuracy %.2f%%, macro F1 %.2f%%\n\n", metrics.accuracy * 100.0,
              metrics.f1 * 100.0);

  // Stage 4: per-track classification + freeboard, vs baselines.
  util::Table table("campaign products (beam gt2r per track)");
  table.set_header({"Pair", "2m segs/km", "ATL07 segs/km", "cls acc %", "ATL07 acc %",
                    "mean fb (m)", "ATL10 fb (m)"});
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    // Our product.
    std::size_t beam_idx = 0;
    for (std::size_t b = 0; b < labeled[k].beams.size(); ++b)
      if (labeled[k].beams[b].beam == atl03::BeamId::Gt2r) beam_idx = b;
    const auto& lb = labeled[k].labeled[beam_idx];
    const auto classes =
        pipeline::classify_windows(model, data.scaler, lb.features, config.sequence_window);
    const auto profile = seasurface::detect_sea_surface(
        lb.segments, classes, seasurface::Method::NasaEquation, config.seasurface);
    const auto product =
        freeboard::compute_freeboard(lb.segments, classes, profile, config.freeboard);

    std::size_t ok = 0, known = 0;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (lb.segments[i].truth == atl03::SurfaceClass::Unknown) continue;
      ++known;
      if (classes[i] == lb.segments[i].truth) ++ok;
    }

    // Baselines from the same photons.
    const auto atl07 = baseline::build_atl07(labeled[k].beams[beam_idx]);
    const auto atl10 = baseline::build_atl10(atl07);
    util::RunningStats fb10;
    for (const auto& f : atl10.freeboards) fb10.add(f.freeboard);

    const double km = config.track_length_m / 1000.0;
    table.add_row({std::to_string(k + 1),
                   util::Table::fmt(static_cast<double>(lb.segments.size()) / km, 0),
                   util::Table::fmt(static_cast<double>(atl07.segments.size()) / km, 0),
                   util::Table::fmt(100.0 * static_cast<double>(ok) /
                                        static_cast<double>(std::max<std::size_t>(known, 1)),
                                    1),
                   util::Table::fmt(atl07.classification_accuracy() * 100.0, 1),
                   util::Table::fmt(product.stats().mean(), 3),
                   util::Table::fmt(fb10.mean(), 3)});
  }
  table.print();
  return 0;
}
