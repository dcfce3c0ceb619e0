// `is2::pipeline::ProductBuilder` — the one implementation of the paper's
// Fig. 1 pipeline (preprocess -> 2 m resample -> FPB -> features ->
// classification -> sea surface -> freeboard) behind every caller: the batch
// jobs in `core/`, `serve::GranuleService`'s cold builds, the examples and
// the benches. Before this existed the stage sequence was wired by hand in
// four places and every new scenario (partial products, alternate
// classifiers, per-stage caching) needed N parallel edits.
//
// The API is a stage graph over a typed `Artifacts` bundle:
//
//  * Each stage (see pipeline/stage.hpp) consumes artifacts earlier stages
//    produced and materializes exactly one new artifact; `Artifacts::done`
//    records which are present, and typed accessors throw instead of
//    returning garbage when a stage hasn't run.
//  * A build can stop at any `ProductKind` (classification / seasurface /
//    freeboard). Kinds are strict prefixes of each other, so a deeper
//    request can *resume* from a cached shallower product: seed an
//    Artifacts with `Artifacts::resume(segments, classes)` and only the
//    missing suffix runs — no shard IO, no inference. That is what turns
//    serve's kind-aware cache keys into real work savings.
//  * The classify stage is pluggable (`ClassifierBackend`): the nn replica
//    path and the ATL07-style decision tree drop into the same graph, and
//    the backend's identity participates in `product_fingerprint`.
//  * Every stage is timed into the caller's StageTrace and wrapped in an
//    obs span; callers that want distributions record the trace (serve
//    does, into its registry).
//
// Ownership / threading contract: a ProductBuilder holds no mutable state
// after construction, so one instance may run builds from many threads
// concurrently (each build owns its Artifacts and StageTrace; the backend
// manages its own concurrency). Construction validates the PipelineConfig
// (`PipelineConfig::validate()`) so bad configs fail at the API boundary
// instead of deep inside a stage.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "atl03/granule.hpp"
#include "atl03/preprocess.hpp"
#include "core/config.hpp"
#include "freeboard/freeboard.hpp"
#include "geo/corrections.hpp"
#include "pipeline/classifier.hpp"
#include "pipeline/kinds.hpp"
#include "pipeline/stage.hpp"
#include "resample/fpb.hpp"
#include "resample/segmenter.hpp"
#include "seasurface/detector.hpp"

namespace is2::pipeline {

/// Typed bundle of everything a build has materialized so far. Stage
/// accessors throw std::logic_error when the stage hasn't run — a build
/// error, not a user error. Inputs are borrowed (the granule/beam or an
/// externally preprocessed beam must outlive the build); outputs are owned.
struct Artifacts {
  // -- inputs (exactly one seeding form) ------------------------------------
  const atl03::Granule* in_granule = nullptr;        ///< with in_beam: raw input
  const atl03::BeamData* in_beam = nullptr;
  const atl03::PreprocessedBeam* in_pre = nullptr;   ///< preprocess already done

  /// Seed from a raw single-beam granule (the full graph runs).
  static Artifacts from_beam(const atl03::Granule& granule, const atl03::BeamData& beam);
  /// Seed from an externally preprocessed beam (preprocess marked done; the
  /// beam is borrowed and must outlive the build).
  static Artifacts from_preprocessed(const atl03::PreprocessedBeam& pre);
  /// Seed from a cached shallower product: segments are FPB-corrected 2 m
  /// segments, classes (may be empty) the classify output. Marks
  /// preprocess/resample/fpb (and classify when classes present) done — the
  /// resume path behind serve's kind-aware cache.
  static Artifacts resume(std::vector<resample::Segment> segments,
                          std::vector<atl03::SurfaceClass> classes = {});

  // -- stage outputs (use the accessors; direct fields for moving out) ------
  atl03::PreprocessedBeam pre_out;             ///< preprocess (when not seeded)
  std::vector<resample::Segment> segments;     ///< resample (+fpb in place)
  std::vector<double> baseline;                ///< features: rolling sea level
  std::vector<resample::FeatureRow> features;  ///< features: the paper's six
  std::vector<atl03::SurfaceClass> classes;    ///< classify
  seasurface::SeaSurfaceProfile sea_surface;   ///< seasurface
  freeboard::FreeboardProduct freeboard;       ///< freeboard

  bool done(StageId id) const { return done_[static_cast<std::size_t>(id)]; }
  void mark_done(StageId id) { done_[static_cast<std::size_t>(id)] = true; }

  /// The preprocessed beam, wherever it lives (seeded or built).
  const atl03::PreprocessedBeam& preprocessed() const;
  const std::vector<resample::Segment>& segments_out() const;
  const std::vector<resample::FeatureRow>& features_out() const;
  const std::vector<atl03::SurfaceClass>& classes_out() const;
  const seasurface::SeaSurfaceProfile& sea_surface_out() const;
  const freeboard::FreeboardProduct& freeboard_out() const;

  /// Move the segments out (batch jobs hand them to label::auto_label).
  std::vector<resample::Segment> take_segments();

 private:
  std::array<bool, kNumStages> done_{};
};

/// The deepest stage a ProductKind needs.
StageId final_stage(ProductKind kind);

/// Fingerprint of every PipelineConfig input that changes built bytes, plus
/// the sea-surface method — i.e. the full-depth (freeboard) prefix.
std::uint64_t config_fingerprint(const core::PipelineConfig& config, seasurface::Method method);

/// Stage-prefix-scoped fingerprint: hashes only the config inputs the
/// stages up to `kind`'s depth actually read. A `classification` key
/// therefore ignores the sea-surface method and the seasurface/freeboard
/// settings entirely — one cached classification product serves resume for
/// *every* method's deeper requests instead of fragmenting per method.
/// `prefix_fingerprint(config, method, ProductKind::freeboard)` equals
/// `config_fingerprint(config, method)`.
std::uint64_t prefix_fingerprint(const core::PipelineConfig& config, seasurface::Method method,
                                 ProductKind kind);

/// Full product identity: prefix fingerprint + classifier backend identity.
/// Deriving a shallower-kind resume key means recomputing the (cheap)
/// prefix hash at that kind, not just swapping the key's kind field.
std::uint64_t product_fingerprint(const core::PipelineConfig& config, seasurface::Method method,
                                  const ClassifierBackend& backend, ProductKind kind);

class ProductBuilder {
 public:
  /// Validates `config` (throws std::invalid_argument on inconsistency).
  ProductBuilder(const core::PipelineConfig& config, const geo::GeoCorrections& corrections);

  ProductBuilder(const ProductBuilder&) = delete;
  ProductBuilder& operator=(const ProductBuilder&) = delete;

  /// Run every not-yet-done stage up to and including `until`, excluding the
  /// classify/seasurface/freeboard tail (use build() for those — they need a
  /// backend/method). Stage wall times are appended to `trace` when given.
  void run_until(Artifacts& art, StageId until, StageTrace* trace = nullptr) const;

  /// Run every not-yet-done stage up to the depth `kind` requires.
  /// `backend` may be null only when the classify stage is already done
  /// (resumed artifacts); `method` selects the sea-surface estimator.
  /// Stage wall times are recorded into `trace` when given.
  void build(Artifacts& art, ProductKind kind, ClassifierBackend* backend,
             seasurface::Method method, StageTrace* trace = nullptr) const;

  const core::PipelineConfig& config() const { return config_; }
  const geo::GeoCorrections& corrections() const { return corrections_; }

 private:
  void run_stage(Artifacts& art, StageId id, ClassifierBackend* backend,
                 seasurface::Method method) const;

  core::PipelineConfig config_;
  geo::GeoCorrections corrections_;
  resample::FirstPhotonBiasCorrector fpb_;
};

}  // namespace is2::pipeline
