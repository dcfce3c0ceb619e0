// Pipeline-wide configuration. Defaults reproduce the paper's setup
// (Ross Sea, November 2019, 2m windows, 5-segment sequences); scale presets
// trade scene size for runtime so tests stay fast while benches run at a
// volume where the parallel stages have something to chew on.
#pragma once

#include <cstdint>

#include "atl03/photon_sim.hpp"
#include "atl03/preprocess.hpp"
#include "atl03/surface_model.hpp"
#include "freeboard/freeboard.hpp"
#include "label/autolabel.hpp"
#include "resample/segmenter.hpp"
#include "seasurface/detector.hpp"
#include "sentinel2/scene_sim.hpp"
#include "sentinel2/segmentation.hpp"

namespace is2::core {

/// Ross Sea region bounds used by the paper (lon -180..-140, lat -78..-70).
struct RossSeaRegion {
  static constexpr double lon_min = -180.0;
  static constexpr double lon_max = -140.0;
  static constexpr double lat_min = -78.0;
  static constexpr double lat_max = -70.0;
};

struct PipelineConfig {
  double track_length_m = 50'000.0;
  std::size_t chunks_per_beam = 4;   ///< shard granularity for map-reduce jobs
  std::size_t sequence_window = 5;   ///< paper: n-2..n+2 context
  std::uint64_t seed = 20191101;

  atl03::SurfaceConfig surface;      ///< length_m overridden by track_length_m
  atl03::InstrumentConfig instrument;
  atl03::PreprocessConfig preprocess;
  s2::SceneConfig scene;
  s2::SegmentationConfig segmentation;
  resample::SegmenterConfig segmenter;
  label::AutoLabelConfig autolabel;
  seasurface::SeaSurfaceConfig seasurface;
  freeboard::FreeboardConfig freeboard;

  /// ~6 km scenes for unit/integration tests.
  static PipelineConfig tiny();
  /// ~20 km scenes for quick experiments.
  static PipelineConfig small();
  /// ~50 km scenes — the bench scale.
  static PipelineConfig standard();

  /// Reject inconsistent settings with std::invalid_argument (e.g. an even
  /// or zero sequence_window, zero chunks_per_beam, a surface.length_m
  /// override that disagrees with track_length_m, a length that is not
  /// finite and positive — resampling windows, the preprocess outlier bin —
  /// or a negative or non-finite outlier threshold or dead time). Called at
  /// pipeline::ProductBuilder construction so a bad config fails at the API
  /// boundary instead of deep inside a stage.
  void validate() const;
};

}  // namespace is2::core
