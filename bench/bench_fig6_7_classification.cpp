// Figs. 6 & 7: sea-ice classification comparison of the 2m ATL03 product
// (this pipeline, LSTM) against the ATL07-style product (150-photon
// segments, rule-tree classification) along the paper's two named tracks:
// 20191104195311_05940510_gt2r and 20191126182014_09290510_gt2r.
// Prints class strips, per-class fractions and product density.
#include <cstdio>
#include <string>

#include "baseline/atl07.hpp"
#include "common.hpp"
#include "pipeline/classifier.hpp"
#include "util/table.hpp"

namespace {

using namespace is2;
using atl03::SurfaceClass;

char class_char(SurfaceClass c) {
  switch (c) {
    case SurfaceClass::ThickIce: return '#';   // blue in the paper's figures
    case SurfaceClass::ThinIce: return '-';    // green
    case SurfaceClass::OpenWater: return '~';  // orange
    default: return ' ';
  }
}

/// Render a class sequence as a fixed-width strip (majority per bucket).
std::string strip(const std::vector<double>& s, const std::vector<SurfaceClass>& cls,
                  double s_max, std::size_t width = 100) {
  std::string out(width, ' ');
  std::vector<std::array<int, 3>> votes(width, {0, 0, 0});
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (cls[i] == SurfaceClass::Unknown) continue;
    auto b = static_cast<std::size_t>(s[i] / s_max * static_cast<double>(width));
    b = std::min(b, width - 1);
    ++votes[b][static_cast<int>(cls[i])];
  }
  for (std::size_t b = 0; b < width; ++b) {
    int best = 0;
    for (int c = 1; c < 3; ++c)
      if (votes[b][c] > votes[b][best]) best = c;
    if (votes[b][best] > 0) out[b] = class_char(static_cast<SurfaceClass>(best));
  }
  return out;
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
  } tracks[] = {{1, "Fig. 6"}, {7, "Fig. 7"}};

  for (const auto& trk : tracks) {
    const auto granule = bench::regenerate_granule(data, trk.pair);
    const auto pre = atl03::preprocess_beam(granule, granule.beam(atl03::BeamId::Gt2r),
                                            campaign.corrections(), data.config.preprocess);
    auto segments = resample::resample(pre, data.config.segmenter);
    fpb.apply(segments);
    const auto baseline_h = resample::rolling_baseline(segments);
    const auto features = resample::to_features(segments, baseline_h);
    const auto atl03_cls = pipeline::classify_windows(trained.model, trained.scaler, features,
                                                      data.config.sequence_window);

    const auto atl07 = baseline::build_atl07(pre);

    std::printf("\n%s: sea-ice classification, IS2 track %s_gt2r "
                "(# thick ice, - thin ice, ~ open water)\n",
                trk.fig, data.pairs[trk.pair].granule_id.c_str() + 6);

    std::vector<double> s03(segments.size());
    for (std::size_t i = 0; i < segments.size(); ++i) s03[i] = segments[i].s;
    std::printf("  (a) ATL03 2m product (this pipeline, LSTM):\n  [%s]\n",
                strip(s03, atl03_cls, data.config.track_length_m).c_str());

    std::vector<double> s07(atl07.segments.size());
    std::vector<SurfaceClass> c07(atl07.segments.size());
    for (std::size_t i = 0; i < atl07.segments.size(); ++i) {
      s07[i] = atl07.segments[i].s_center;
      c07[i] = atl07.segments[i].type;
    }
    std::printf("  (b) ATL07-style product (150-photon segments, rule tree):\n  [%s]\n",
                strip(s07, c07, data.config.track_length_m).c_str());

    // Class fractions + density comparison.
    auto fractions = [](const std::vector<SurfaceClass>& cls) {
      std::array<double, 3> f{0, 0, 0};
      std::size_t n = 0;
      for (auto c : cls)
        if (c != SurfaceClass::Unknown) {
          ++f[static_cast<int>(c)];
          ++n;
        }
      for (auto& v : f) v /= std::max<double>(1.0, static_cast<double>(n));
      return f;
    };
    const auto f03 = fractions(atl03_cls);
    const auto f07 = fractions(c07);

    is2::util::Table table;
    table.set_header({"Product", "Segments", "Mean seg len (m)", "Segs/km", "thick %",
                      "thin %", "water %", "accuracy vs truth"});
    // ATL03 truth accuracy:
    std::size_t ok = 0, known = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].truth == SurfaceClass::Unknown || atl03_cls[i] == SurfaceClass::Unknown)
        continue;
      ++known;
      if (segments[i].truth == atl03_cls[i]) ++ok;
    }
    const double km = data.config.track_length_m / 1000.0;
    table.add_row({"ATL03 2m (ours)", std::to_string(segments.size()),
                   is2::util::Table::fmt(2.0, 1),
                   is2::util::Table::fmt(static_cast<double>(segments.size()) / km, 0),
                   is2::util::Table::fmt(f03[0] * 100, 1), is2::util::Table::fmt(f03[1] * 100, 1),
                   is2::util::Table::fmt(f03[2] * 100, 1),
                   is2::util::Table::fmt(100.0 * static_cast<double>(ok) /
                                             static_cast<double>(std::max<std::size_t>(known, 1)),
                                         2)});
    table.add_row({"ATL07-style", std::to_string(atl07.segments.size()),
                   is2::util::Table::fmt(atl07.mean_segment_length(), 1),
                   is2::util::Table::fmt(static_cast<double>(atl07.segments.size()) / km, 0),
                   is2::util::Table::fmt(f07[0] * 100, 1), is2::util::Table::fmt(f07[1] * 100, 1),
                   is2::util::Table::fmt(f07[2] * 100, 1),
                   is2::util::Table::fmt(atl07.classification_accuracy() * 100.0, 2)});
    table.print();
    std::printf("  density ratio (ATL03 2m : ATL07) = %.1fx  — the paper's higher-resolution "
                "claim\n",
                static_cast<double>(segments.size()) /
                    static_cast<double>(std::max<std::size_t>(atl07.segments.size(), 1)));
  }
  return 0;
}
