// Figs. 10 & 11: freeboard comparison along the two named tracks —
// (a) the 2m ATL03 freeboard product, (b) the ATL07-based (Koo-style)
// freeboard, (c) freeboard distributions (similar peaks), and (d) the point
// density difference (the paper's higher-resolution claim).
#include <cstdio>

#include "baseline/atl07.hpp"
#include "baseline/atl10.hpp"
#include "common.hpp"
#include "pipeline/classifier.hpp"
#include "freeboard/freeboard.hpp"
#include "seasurface/detector.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace is2;
  using atl03::SurfaceClass;

  const auto data = bench::load_or_generate_campaign(core::PipelineConfig::standard());
  const core::Campaign campaign(data.config);
  auto trained = bench::load_or_train_lstm(data);
  const resample::FirstPhotonBiasCorrector fpb(data.config.instrument.dead_time_m,
                                               data.config.instrument.strong_channels);

  const struct {
    std::size_t pair;
    const char* fig;
  } tracks[] = {{1, "Fig. 10"}, {7, "Fig. 11"}};

  for (const auto& trk : tracks) {
    const auto granule = bench::regenerate_granule(data, trk.pair);
    const auto pre = atl03::preprocess_beam(granule, granule.beam(atl03::BeamId::Gt2r),
                                            campaign.corrections(), data.config.preprocess);
    auto segments = resample::resample(pre, data.config.segmenter);
    fpb.apply(segments);
    const auto features = resample::to_features(segments, resample::rolling_baseline(segments));
    const auto cls = pipeline::classify_windows(trained.model, trained.scaler, features,
                                                data.config.sequence_window);

    // (a) our 2m product.
    const auto profile = seasurface::detect_sea_surface(
        segments, cls, seasurface::Method::NasaEquation, data.config.seasurface);
    const auto ours =
        freeboard::compute_freeboard(segments, cls, profile, data.config.freeboard);

    // (b) ATL07-based freeboard (Koo-style) + ATL10 emulation.
    const auto atl07 = baseline::build_atl07(pre);
    const auto atl10 = baseline::build_atl10(atl07);

    std::printf("\n%s: freeboard, IS2 track %s_gt2r\n", trk.fig,
                data.pairs[trk.pair].granule_id.c_str() + 6);

    const auto stats_ours = ours.stats();
    util::RunningStats stats_atl10;
    util::Histogram hist10(-0.2, 1.2, 56);
    for (const auto& fb : atl10.freeboards) {
      stats_atl10.add(fb.freeboard);
      hist10.add(fb.freeboard);
    }
    const double km = data.config.track_length_m / 1000.0;

    util::Table table;
    table.set_header({"Product", "Points", "Points/km", "Mean fb (m)", "Median-ish mode (m)",
                      "Std (m)"});
    const auto hist03 = ours.distribution();
    table.add_row({"ATL03 2m (ours)", std::to_string(ours.points.size()),
                   util::Table::fmt(static_cast<double>(ours.points.size()) / km, 0),
                   util::Table::fmt(stats_ours.mean(), 3), util::Table::fmt(hist03.mode(), 3),
                   util::Table::fmt(stats_ours.stddev(), 3)});
    table.add_row({"ATL07/ATL10-style", std::to_string(atl10.freeboards.size()),
                   util::Table::fmt(static_cast<double>(atl10.freeboards.size()) / km, 0),
                   util::Table::fmt(stats_atl10.mean(), 3), util::Table::fmt(hist10.mode(), 3),
                   util::Table::fmt(stats_atl10.stddev(), 3)});
    table.print();

    std::printf("(c) freeboard distributions\n  ATL03 2m:\n%s  ATL07/ATL10-style:\n%s",
                hist03.render(40).c_str(), hist10.render(40).c_str());
    std::printf("(d) point density: ATL03 %.0f pts/km vs ATL10-style %.0f pts/km  (ratio %.1fx; "
                "distribution peaks: %.3f vs %.3f m)\n",
                static_cast<double>(ours.points.size()) / km,
                static_cast<double>(atl10.freeboards.size()) / km,
                static_cast<double>(ours.points.size()) /
                    static_cast<double>(std::max<std::size_t>(atl10.freeboards.size(), 1)),
                hist03.mode(), hist10.mode());

    // Freeboard truth check (simulator advantage: exact truth exists).
    const auto surface = campaign.surface(trk.pair);
    std::vector<double> truth(ours.points.size());
    for (std::size_t i = 0; i < ours.points.size(); ++i) {
      // True freeboard at the segment center (sample of the texture field).
      truth[i] = surface.sample(ours.points[i].s).freeboard;
    }
    std::printf("RMS error vs simulator truth (correctly-classified points): %.3f m\n",
                freeboard::freeboard_rms_vs_truth(ours, truth));
  }
  return 0;
}
