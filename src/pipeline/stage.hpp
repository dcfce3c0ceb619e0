// Stage identities and the per-build stage trace of the `is2::pipeline`
// stage graph.
//
// The seven paper stages (Fig. 1) are first-class values here so every
// consumer — the batch jobs, `serve::GranuleService`, the benches — shares
// one stage vocabulary. A build reports its per-stage wall times in a
// `StageTrace`; aggregating traces into latency distributions is the
// caller's business (serve records them into `obs::HistogramMetric`s).
//
// Threading contract: `StageTrace` is a plain value (callers synchronize).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace is2::pipeline {

/// The seven stages of the paper's pipeline, in dependency order. A build
/// that resumes from cached artifacts skips the prefix that is already done.
enum class StageId : std::uint8_t {
  preprocess = 0,  ///< photon selection, projection, height correction
  resample = 1,    ///< 2 m windowed segments
  fpb = 2,         ///< first-photon-bias correction (in place on segments)
  features = 3,    ///< rolling baseline + the paper's six features
  classify = 4,    ///< per-segment classes via a ClassifierBackend
  seasurface = 5,  ///< local sea-surface profile
  freeboard = 6,   ///< per-segment freeboard points
};

inline constexpr std::size_t kNumStages = 7;

inline const char* stage_name(StageId id) {
  switch (id) {
    case StageId::preprocess: return "preprocess";
    case StageId::resample: return "resample";
    case StageId::fpb: return "fpb";
    case StageId::features: return "features";
    case StageId::classify: return "classify";
    case StageId::seasurface: return "seasurface";
    case StageId::freeboard: return "freeboard";
  }
  return "?";
}

/// Wall time of each stage that ran during one build (ms; `ran` marks which
/// entries are meaningful — resumed builds leave their skipped prefix
/// untouched).
struct StageTrace {
  std::array<double, kNumStages> ms{};
  std::array<bool, kNumStages> ran{};

  double& at(StageId id) { return ms[static_cast<std::size_t>(id)]; }
  double at(StageId id) const { return ms[static_cast<std::size_t>(id)]; }
  bool did(StageId id) const { return ran[static_cast<std::size_t>(id)]; }
  void mark(StageId id, double stage_ms) {
    ms[static_cast<std::size_t>(id)] = stage_ms;
    ran[static_cast<std::size_t>(id)] = true;
  }
};

}  // namespace is2::pipeline
