// Figs. 8 & 9: local sea surface detection along the two named tracks —
// (a) the four detection methods on the 2m ATL03 segments, (b) the ATL03
// NASA-equation surface against the ATL07/ATL10-style reference surface
// (the paper reports agreement within ~0.1 m, with method (iv) smoothest).
#include <cstdio>

#include "baseline/atl07.hpp"
#include "baseline/atl10.hpp"
#include "common.hpp"
#include "pipeline/classifier.hpp"
#include "seasurface/detector.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace is2;
using seasurface::Method;

double profile_roughness(const seasurface::SeaSurfaceProfile& p) {
  double acc = 0.0;
  for (std::size_t i = 1; i < p.points().size(); ++i)
    acc += std::abs(p.points()[i].h_ref - p.points()[i - 1].h_ref);
  return p.points().size() > 1 ? acc / static_cast<double>(p.points().size() - 1) : 0.0;
}

}  // namespace

int main() {
  const auto data = bench::load_or_generate_campaign(core::PipelineConfig::standard());
  const core::Campaign campaign(data.config);
  auto trained = bench::load_or_train_lstm(data);
  const resample::FirstPhotonBiasCorrector fpb(data.config.instrument.dead_time_m,
                                               data.config.instrument.strong_channels);

  const struct {
    std::size_t pair;
    const char* fig;
  } tracks[] = {{1, "Fig. 8"}, {7, "Fig. 9"}};

  for (const auto& trk : tracks) {
    const auto granule = bench::regenerate_granule(data, trk.pair);
    const auto pre = atl03::preprocess_beam(granule, granule.beam(atl03::BeamId::Gt2r),
                                            campaign.corrections(), data.config.preprocess);
    auto segments = resample::resample(pre, data.config.segmenter);
    fpb.apply(segments);
    const auto features = resample::to_features(segments, resample::rolling_baseline(segments));
    const auto cls = pipeline::classify_windows(trained.model, trained.scaler, features,
                                                data.config.sequence_window);

    std::printf("\n%s: local sea surface, IS2 track %s_gt2r\n", trk.fig,
                data.pairs[trk.pair].granule_id.c_str() + 6);

    // (a) four methods, series sampled every 2.5 km.
    const Method methods[] = {Method::MinElevation, Method::AverageElevation,
                              Method::NearestMinElevation, Method::NasaEquation};
    std::vector<seasurface::SeaSurfaceProfile> profiles;
    for (Method m : methods)
      profiles.push_back(
          seasurface::detect_sea_surface(segments, cls, m, data.config.seasurface));

    util::Table series("(a) local sea surface height series [m]");
    series.set_header({"s (km)", "min", "average", "nearest-min", "nasa-eq", "true SSH"});
    const auto surface = campaign.surface(trk.pair);
    for (double s = 0.0; s <= data.config.track_length_m; s += 2'500.0) {
      const double t_s = data.pairs[trk.pair].is2_epoch_s + s / 6'900.0;
      const double truth =
          surface.sea_surface_height(s, t_s) -
          campaign.corrections().total(t_s, surface.track().at(s).x, surface.track().at(s).y);
      series.add_row({util::Table::fmt(s / 1000.0, 1), util::Table::fmt(profiles[0].at(s), 3),
                      util::Table::fmt(profiles[1].at(s), 3),
                      util::Table::fmt(profiles[2].at(s), 3),
                      util::Table::fmt(profiles[3].at(s), 3), util::Table::fmt(truth, 3)});
    }
    series.print();

    util::Table rough("method smoothness (mean |step|, smaller = smoother) and coverage");
    rough.set_header({"method", "mean |step| (m)", "windows", "interpolated %"});
    for (std::size_t m = 0; m < 4; ++m) {
      rough.add_row({seasurface::method_name(methods[m]),
                     util::Table::fmt(profile_roughness(profiles[m]), 4),
                     std::to_string(profiles[m].points().size()),
                     util::Table::fmt(profiles[m].interpolated_fraction() * 100.0, 1)});
    }
    rough.print();

    // (b) ATL03 NASA-equation surface vs the ATL07/ATL10-style reference.
    const auto atl07 = baseline::build_atl07(pre);
    const auto atl10 = baseline::build_atl10(atl07);
    std::vector<double> ours, theirs;
    for (std::size_t sec = 0; sec < atl10.section_ref_height.size(); ++sec) {
      ours.push_back(profiles[3].at(atl10.section_center_s[sec]));
      theirs.push_back(atl10.section_ref_height[sec]);
    }
    std::printf("(b) ATL03 (nasa-eq) vs ATL07/ATL10-style reference surface: "
                "RMS difference %.3f m over %zu sections (paper: ~0.1 m)\n",
                util::rms_diff(ours, theirs), ours.size());
  }
  return 0;
}
