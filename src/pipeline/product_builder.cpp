#include "pipeline/product_builder.hpp"

#include <string>

#include "obs/trace.hpp"
#include "pipeline/fingerprint.hpp"
#include "util/timer.hpp"

namespace is2::pipeline {

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

Artifacts Artifacts::from_beam(const atl03::Granule& granule, const atl03::BeamData& beam) {
  Artifacts art;
  art.in_granule = &granule;
  art.in_beam = &beam;
  return art;
}

Artifacts Artifacts::from_preprocessed(const atl03::PreprocessedBeam& pre) {
  Artifacts art;
  art.in_pre = &pre;
  art.mark_done(StageId::preprocess);
  return art;
}

Artifacts Artifacts::resume(std::vector<resample::Segment> segments,
                            std::vector<atl03::SurfaceClass> classes) {
  Artifacts art;
  // Classes are per-segment: a parallel vector (including empty == empty —
  // an empty beam classifies to nothing) means the classify stage ran; an
  // empty vector alongside non-empty segments means "no classes provided"
  // and the backend will run. Any other size is an upstream bug — fail at
  // the seam instead of silently re-classifying over corrupt input.
  if (!classes.empty() && classes.size() != segments.size())
    throw std::invalid_argument(
        "Artifacts::resume: classes (" + std::to_string(classes.size()) +
        ") not parallel to segments (" + std::to_string(segments.size()) + ")");
  const bool classified = classes.size() == segments.size();
  art.segments = std::move(segments);
  art.mark_done(StageId::preprocess);  // vacuously: segments subsume the beam
  art.mark_done(StageId::resample);
  art.mark_done(StageId::fpb);
  if (classified) {
    art.classes = std::move(classes);
    art.mark_done(StageId::classify);
  }
  return art;
}

const atl03::PreprocessedBeam& Artifacts::preprocessed() const {
  if (!done(StageId::preprocess))
    throw std::logic_error("Artifacts: preprocess stage has not run");
  if (in_pre) return *in_pre;
  return pre_out;
}

const std::vector<resample::Segment>& Artifacts::segments_out() const {
  if (!done(StageId::fpb)) throw std::logic_error("Artifacts: fpb stage has not run");
  return segments;
}

const std::vector<resample::FeatureRow>& Artifacts::features_out() const {
  if (!done(StageId::features)) throw std::logic_error("Artifacts: features stage has not run");
  return features;
}

const std::vector<atl03::SurfaceClass>& Artifacts::classes_out() const {
  if (!done(StageId::classify)) throw std::logic_error("Artifacts: classify stage has not run");
  return classes;
}

const seasurface::SeaSurfaceProfile& Artifacts::sea_surface_out() const {
  if (!done(StageId::seasurface))
    throw std::logic_error("Artifacts: seasurface stage has not run");
  return sea_surface;
}

const freeboard::FreeboardProduct& Artifacts::freeboard_out() const {
  if (!done(StageId::freeboard)) throw std::logic_error("Artifacts: freeboard stage has not run");
  return freeboard;
}

std::vector<resample::Segment> Artifacts::take_segments() {
  if (!done(StageId::fpb)) throw std::logic_error("Artifacts: fpb stage has not run");
  done_ = {};  // segments leave the bundle: nothing derived from them is valid
  return std::move(segments);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

StageId final_stage(ProductKind kind) {
  switch (kind) {
    case ProductKind::classification: return StageId::classify;
    case ProductKind::seasurface: return StageId::seasurface;
    case ProductKind::freeboard: return StageId::freeboard;
  }
  throw std::invalid_argument("final_stage: unknown ProductKind");
}

std::uint64_t prefix_fingerprint(const core::PipelineConfig& config, seasurface::Method method,
                                 ProductKind kind) {
  // Stage-scoped: each block below hashes exactly the config inputs the
  // corresponding stage prefix reads, so products of shallower kinds keep
  // one cache identity across settings their stages never consume (most
  // importantly: a classification product is method-agnostic).
  // Domain tag. It changes when the same inputs start to build different
  // bytes, so products an older build stored on disk are misses; last when
  // preprocess began to project the photons between a 20 m segment's ends
  // by the local expansion (their x and y moved by rounding).
  std::uint64_t h = 0x15ECE5E1CE2Cu;
  // preprocess .. classify (every kind).
  h = fp_mix(h, config.seed);
  h = fp_mix(h, static_cast<std::uint64_t>(config.sequence_window));
  h = fp_mix(h, config.track_length_m);
  h = fp_mix(h, config.segmenter.window_m);
  h = fp_mix(h, config.segmenter.shot_spacing_m);
  h = fp_mix(h, static_cast<std::uint64_t>(config.segmenter.min_photons));
  h = fp_mix(h, static_cast<std::uint64_t>(config.preprocess.min_conf));
  h = fp_mix(h, static_cast<std::uint64_t>(config.preprocess.apply_geo_correction));
  h = fp_mix(h, config.preprocess.outlier_bin_m);
  h = fp_mix(h, config.preprocess.outlier_threshold_m);
  h = fp_mix(h, config.instrument.dead_time_m);
  h = fp_mix(h, static_cast<std::uint64_t>(config.instrument.strong_channels));
  if (kind >= ProductKind::seasurface) {
    // Sea surface estimator (the method is a seasurface-stage input).
    h = fp_mix(h, static_cast<std::uint64_t>(method));
    h = fp_mix(h, config.seasurface.window_m);
    h = fp_mix(h, config.seasurface.stride_m);
    h = fp_mix(h, config.seasurface.lead_gap_m);
    h = fp_mix(h, config.seasurface.sigma_floor);
    h = fp_mix(h, static_cast<std::uint64_t>(config.seasurface.min_lead_segments));
    h = fp_mix(h, config.seasurface.outlier_mad_k);
  }
  if (kind >= ProductKind::freeboard) {
    // Freeboard clipping.
    h = fp_mix(h, config.freeboard.max_freeboard_m);
    h = fp_mix(h, config.freeboard.min_freeboard_m);
    h = fp_mix(h, static_cast<std::uint64_t>(config.freeboard.include_open_water));
  }
  return h;
}

std::uint64_t config_fingerprint(const core::PipelineConfig& config, seasurface::Method method) {
  return prefix_fingerprint(config, method, ProductKind::freeboard);
}

std::uint64_t product_fingerprint(const core::PipelineConfig& config, seasurface::Method method,
                                  const ClassifierBackend& backend, ProductKind kind) {
  std::uint64_t h = prefix_fingerprint(config, method, kind);
  h = fp_mix(h, static_cast<std::uint64_t>(backend.id()));
  h = fp_mix(h, backend.fingerprint());
  return h;
}

// ---------------------------------------------------------------------------
// ProductBuilder
// ---------------------------------------------------------------------------

ProductBuilder::ProductBuilder(const core::PipelineConfig& config,
                               const geo::GeoCorrections& corrections)
    : config_(config),
      corrections_(corrections),
      fpb_(config.instrument.dead_time_m, config.instrument.strong_channels) {
  config_.validate();  // bad configs fail here, not deep inside a stage
}

void ProductBuilder::run_stage(Artifacts& art, StageId id, ClassifierBackend* backend,
                               seasurface::Method method) const {
  switch (id) {
    case StageId::preprocess: {
      if (!art.in_granule || !art.in_beam)
        throw std::logic_error("ProductBuilder: preprocess needs a granule+beam input");
      art.pre_out = atl03::preprocess_beam(*art.in_granule, *art.in_beam, corrections_,
                                           config_.preprocess);
      break;
    }
    case StageId::resample:
      art.segments = resample::resample(art.preprocessed(), config_.segmenter);
      break;
    case StageId::fpb:
      fpb_.apply(art.segments);
      break;
    case StageId::features:
      // Delta features break across along-track gaps wider than 1.5x the
      // resampling window (same policy everywhere; see to_features).
      art.baseline = resample::rolling_baseline(art.segments);
      art.features =
          resample::to_features(art.segments, art.baseline, config_.segmenter.window_m * 1.5);
      break;
    case StageId::classify:
      if (!backend)
        throw std::logic_error("ProductBuilder: classify stage needs a ClassifierBackend");
      art.classes = backend->classify(art.features_out());
      break;
    case StageId::seasurface:
      art.sea_surface = seasurface::detect_sea_surface(art.segments_out(), art.classes_out(),
                                                       method, config_.seasurface);
      break;
    case StageId::freeboard:
      art.freeboard = freeboard::compute_freeboard(art.segments_out(), art.classes_out(),
                                                   art.sea_surface_out(), config_.freeboard);
      break;
  }
  art.mark_done(id);
}

void ProductBuilder::run_until(Artifacts& art, StageId until, StageTrace* trace) const {
  if (until > StageId::features)
    throw std::invalid_argument(
        "ProductBuilder::run_until: classify and deeper need build() (backend + method)");
  util::Timer timer;
  for (std::size_t i = 0; i <= static_cast<std::size_t>(until); ++i) {
    const auto id = static_cast<StageId>(i);
    if (art.done(id)) continue;
    // One obs span per stage, covering exactly the StageTrace-timed window
    // (no-op outside a serve TraceBinding, e.g. batch builds).
    obs::SpanScope span(stage_name(id));
    timer.reset();
    run_stage(art, id, nullptr, seasurface::Method::NasaEquation);
    if (trace) trace->mark(id, timer.millis());
  }
}

void ProductBuilder::build(Artifacts& art, ProductKind kind, ClassifierBackend* backend,
                           seasurface::Method method, StageTrace* trace) const {
  const StageId until = final_stage(kind);
  util::Timer timer;
  for (std::size_t i = 0; i <= static_cast<std::size_t>(until); ++i) {
    const auto id = static_cast<StageId>(i);
    if (art.done(id)) continue;
    // Resumed-from-classification builds never need the features stage: the
    // stage graph's only consumer of features is classify.
    if (id == StageId::features && art.done(StageId::classify)) continue;
    obs::SpanScope span(stage_name(id));
    timer.reset();
    run_stage(art, id, backend, method);
    if (trace) trace->mark(id, timer.millis());
  }
}

}  // namespace is2::pipeline
