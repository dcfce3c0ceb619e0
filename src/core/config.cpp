#include "core/config.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace is2::core {

void PipelineConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("PipelineConfig::validate: " + what);
  };
  auto length = [](double value, const char* name, bool zero_ok = false) {
    util::check_length(value, std::string("PipelineConfig::validate: ") + name, zero_ok);
  };
  // The classifier windows are centered on one segment: the window must be
  // odd so "n-2..n+2 context" has a center, and non-zero so windows exist.
  if (sequence_window == 0 || sequence_window % 2 == 0)
    fail("sequence_window must be odd and non-zero (got " + std::to_string(sequence_window) +
         ")");
  if (chunks_per_beam == 0) fail("chunks_per_beam must be >= 1");
  length(track_length_m, "track_length_m");
  // surface.length_m is overridden to track_length_m when the scene is
  // generated (Campaign); an explicit override that disagrees would silently
  // simulate a different scene than the pipeline expects.
  if (surface.length_m != atl03::SurfaceConfig{}.length_m && surface.length_m != track_length_m)
    fail("surface.length_m (" + std::to_string(surface.length_m) +
         ") disagrees with track_length_m (" + std::to_string(track_length_m) +
         "); leave it at the default to inherit track_length_m");
  preprocess.validate();
  segmenter.validate();
  length(seasurface.window_m, "seasurface.window_m");
  length(seasurface.stride_m, "seasurface.stride_m");
  length(instrument.dead_time_m, "instrument.dead_time_m", /*zero_ok=*/true);
  if (instrument.strong_channels == 0) fail("instrument.strong_channels must be >= 1");
  if (freeboard.max_freeboard_m < freeboard.min_freeboard_m)
    fail("freeboard.max_freeboard_m below min_freeboard_m");
}

PipelineConfig PipelineConfig::tiny() {
  PipelineConfig cfg;
  cfg.track_length_m = 6'000.0;
  cfg.chunks_per_beam = 2;
  cfg.scene.cross_track_halfwidth_m = 4'200.0;
  cfg.scene.margin_m = 400.0;
  cfg.segmentation.kmeans_subsample = 40'000;
  return cfg;
}

PipelineConfig PipelineConfig::small() {
  PipelineConfig cfg;
  cfg.track_length_m = 20'000.0;
  cfg.chunks_per_beam = 3;
  return cfg;
}

PipelineConfig PipelineConfig::standard() {
  PipelineConfig cfg;
  cfg.track_length_m = 50'000.0;
  cfg.chunks_per_beam = 4;
  return cfg;
}

}  // namespace is2::core
