#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "atl03/preprocess.hpp"
#include "h5lite/granule_io.hpp"
#include "seasurface/detector.hpp"
#include "util/backoff.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace is2::serve {

// ---------------------------------------------------------------------------
// ShardIndex
// ---------------------------------------------------------------------------

namespace {

/// Parse "<granule_id>#<beam>c<chunk>" shard ids; whole-granule files (no
/// '#') index as chunk 0 under their own id.
void parse_shard_id(const std::string& id, std::string& base, std::size_t& chunk) {
  const auto hash = id.find('#');
  if (hash == std::string::npos) {
    base = id;
    chunk = 0;
    return;
  }
  base = id.substr(0, hash);
  const auto c = id.find_last_of('c');
  chunk = 0;
  if (c != std::string::npos && c > hash) {
    try {
      chunk = static_cast<std::size_t>(std::stoul(id.substr(c + 1)));
    } catch (const std::exception&) {
      chunk = 0;
    }
  }
}

}  // namespace

ShardIndex ShardIndex::build(const std::vector<std::string>& shard_files) {
  // (granule, beam) -> [(chunk, file)] so chunks can be ordered along-track.
  // Only the id and beam are needed here, so each shard is scanned header-
  // only (h5::read_granule_meta) instead of fully decoded: index build cost
  // is per-file, not per-photon.
  std::map<std::pair<std::string, int>, std::vector<std::pair<std::size_t, std::string>>> grouped;
  for (const auto& file : shard_files) {
    const h5::GranuleMeta meta = h5::read_granule_meta(file);
    if (meta.beams.size() != 1)
      throw std::invalid_argument("ShardIndex: shard must hold exactly one beam: " + file);
    std::string base;
    std::size_t chunk = 0;
    parse_shard_id(meta.id, base, chunk);
    grouped[{base, static_cast<int>(meta.beams[0].beam)}].emplace_back(chunk, file);
  }

  ShardIndex out;
  for (auto& [key, chunks] : grouped) {
    std::sort(chunks.begin(), chunks.end());
    auto& files = out.beams_[key];
    files.reserve(chunks.size());
    for (auto& [chunk, file] : chunks) files.push_back(std::move(file));
  }
  return out;
}

const std::vector<std::string>* ShardIndex::find(const std::string& granule_id,
                                                 atl03::BeamId beam) const {
  const auto it = beams_.find({granule_id, static_cast<int>(beam)});
  return it == beams_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, atl03::BeamId>> ShardIndex::entries() const {
  std::vector<std::pair<std::string, atl03::BeamId>> out;
  out.reserve(beams_.size());
  for (const auto& [key, files] : beams_)
    out.emplace_back(key.first, static_cast<atl03::BeamId>(key.second));
  return out;
}

atl03::Granule ShardIndex::load_merged(const std::vector<std::string>& files) {
  if (files.empty()) throw std::invalid_argument("ShardIndex::load_merged: no files");
  atl03::Granule out = h5::load_granule(files[0]);
  if (out.beams.size() != 1)
    throw std::invalid_argument("ShardIndex::load_merged: shard must hold exactly one beam");
  const auto hash = out.id.find('#');
  if (hash != std::string::npos) out.id = out.id.substr(0, hash);

  atl03::BeamData& merged = out.beams[0];
  for (std::size_t f = 1; f < files.size(); ++f) {
    const atl03::Granule next = h5::load_granule(files[f]);
    if (next.beams.size() != 1 || next.beams[0].beam != merged.beam)
      throw std::invalid_argument("ShardIndex::load_merged: mixed beams in chunk list");
    const atl03::BeamData& b = next.beams[0];
    merged.delta_time.insert(merged.delta_time.end(), b.delta_time.begin(), b.delta_time.end());
    merged.lat.insert(merged.lat.end(), b.lat.begin(), b.lat.end());
    merged.lon.insert(merged.lon.end(), b.lon.begin(), b.lon.end());
    merged.h.insert(merged.h.end(), b.h.begin(), b.h.end());
    merged.along_track.insert(merged.along_track.end(), b.along_track.begin(),
                              b.along_track.end());
    merged.signal_conf.insert(merged.signal_conf.end(), b.signal_conf.begin(),
                              b.signal_conf.end());
    merged.truth_class.insert(merged.truth_class.end(), b.truth_class.begin(),
                              b.truth_class.end());
    // Chunk shards carry overlapping background bins (1-bin margins); keep
    // only bins past the last merged timestamp.
    const double last_t = merged.bckgrd_delta_time.empty()
                              ? -std::numeric_limits<double>::infinity()
                              : merged.bckgrd_delta_time.back();
    for (std::size_t j = 0; j < b.bckgrd_delta_time.size(); ++j) {
      if (b.bckgrd_delta_time[j] <= last_t) continue;
      merged.bckgrd_delta_time.push_back(b.bckgrd_delta_time[j]);
      merged.bckgrd_rate.push_back(b.bckgrd_rate[j]);
    }
  }
  merged.check_consistent();
  return out;
}

// ---------------------------------------------------------------------------
// GranuleService
// ---------------------------------------------------------------------------

GranuleService::GranuleService(const ServiceConfig& config,
                               const core::PipelineConfig& pipeline,
                               const geo::GeoCorrections& corrections, ShardIndex index,
                               ModelFactory model_factory, resample::FeatureScaler scaler,
                               TreeFactory tree_factory)
    : config_(config),
      pipeline_(pipeline),
      index_(std::move(index)),
      tracer_(obs::TraceConfig{config.trace_ring_capacity, config.trace_sample_rate,
                               config.trace_slow_ms}),
      builder_(pipeline, corrections),  // validates the PipelineConfig
      cache_(config.cache_bytes, config.cache_shards, &registry_) {
  if (!model_factory) throw std::invalid_argument("GranuleService: null model factory");

  // Register every service-level instrument once; the request paths then
  // touch pre-resolved pointers only. Stage latencies share one metric name
  // with a `stage` label (low cardinality: the seven builder stages plus
  // load, disk_load and total).
  const auto stage_hist = [this](const char* stage) {
    return &registry_.histogram("is2_serve_stage_ms", {{"stage", stage}},
                                "serve-side stage latency (ms)");
  };
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    const obs::Labels cls{{"class", priority_name(static_cast<Priority>(c))}};
    requests_total_[c] =
        &registry_.counter("is2_serve_requests_total", cls, "submit + try_submit calls");
    class_service_[c] = &registry_.histogram("is2_serve_class_service_ms", cls,
                                             "per-class service latency (ms)");
  }
  fast_hits_total_ = &registry_.counter("is2_serve_fast_hits_total", {},
                                        "answered from RAM cache without dispatch");
  writeback_failures_total_ = &registry_.counter("is2_serve_writeback_failures_total", {},
                                                 "async disk writes that threw");
  writeback_skipped_total_ =
      &registry_.counter("is2_serve_writeback_skipped_total", {},
                         "disk write-backs not queued: the backlog was full");
  writeback_pending_ = &registry_.gauge("is2_serve_writeback_pending", {},
                                        "disk write-backs queued or running");
  const char* resumed_help = "builds seeded from a cached product instead of the shards";
  resumed_shallower_total_ = &registry_.counter("is2_serve_resumed_builds_total",
                                                {{"seed", "shallower"}}, resumed_help);
  resumed_sibling_total_ = &registry_.counter("is2_serve_resumed_builds_total",
                                              {{"seed", "sibling"}}, resumed_help);
  stage_load_ = stage_hist("load");
  for (std::size_t i = 0; i < pipeline::kNumStages; ++i)
    stage_builder_[i] = stage_hist(pipeline::stage_name(static_cast<pipeline::StageId>(i)));
  stage_disk_load_ = stage_hist("disk_load");
  stage_total_ = stage_hist("total");
  queue_wait_hist_ = &registry_.histogram("is2_serve_queue_wait_ms", {},
                                          "scheduled jobs: wait for a worker (ms)");
  service_time_hist_ = &registry_.histogram("is2_serve_service_time_ms", {},
                                            "scheduled jobs: queue wait + execution (ms)");
  inference_batches_total_ =
      &registry_.counter("is2_serve_inference_batches_total", {}, "backend forward passes");
  inference_windows_total_ =
      &registry_.counter("is2_serve_inference_windows_total", {}, "windows classified");

  if (config_.shared_disk != nullptr) {
    // Cluster mode: several services share one externally owned tier (one
    // DiskCache instance per directory — its manifest is per-instance).
    disk_ = config_.shared_disk;
  } else if (!config_.disk_cache_dir.empty()) {
    owned_disk_ = std::make_unique<DiskCache>(
        DiskCacheConfig{config_.disk_cache_dir, config_.disk_cache_bytes, &registry_});
    disk_ = owned_disk_.get();
  }
  if (disk_) writeback_pool_ = std::make_unique<util::ThreadPool>(1, "writeback");
  const std::size_t workers = config_.workers ? config_.workers : 1;
  // The nn backend owns the replica checkout pool (one per worker plus one
  // per inference thread, so checkout never deadlocks) and the batch-level
  // inference ThreadPool.
  nn_backend_ = std::make_unique<pipeline::NnBackend>(
      std::move(model_factory), scaler, pipeline_.sequence_window, workers,
      config_.inference_batch_windows, config_.inference_threads, config_.model_version);
  if (tree_factory)
    tree_backend_ = std::make_unique<pipeline::DecisionTreeBackend>(tree_factory());
  BatchScheduler::Config sched_cfg;
  sched_cfg.workers = workers;
  sched_cfg.queue_capacity = config_.queue_capacity;
  sched_cfg.class_weights = config_.class_weights;
  sched_cfg.registry = &registry_;
  sched_cfg.tracer = &tracer_;
  // Per-class latency is attributed at job completion with service_ms
  // (queue wait + execution) — the quantity the weighted dequeue shapes —
  // not the builder's inner wall time. The same callback feeds the
  // queue-wait / service-time split.
  sched_cfg.on_served = [this](Priority cls, double service_ms, double queue_wait_ms) {
    class_service_[static_cast<std::size_t>(cls)]->observe(service_ms);
    service_time_hist_->observe(service_ms);
    queue_wait_hist_->observe(queue_wait_ms);
  };
  scheduler_ = std::make_unique<BatchScheduler>(
      sched_cfg, [this](const ProductRequest& request, const ProductKey& key) {
        return build(request, key);
      });
}

GranuleService::~GranuleService() { shutdown(); }

void GranuleService::shutdown() {
  if (scheduler_) scheduler_->shutdown();
  // After the workers drained, no new write-backs can be scheduled; let the
  // ones already scheduled land so a restart finds a complete disk tier.
  wait_disk_writebacks();
}

std::shared_ptr<const GranuleProduct> GranuleService::peek_ram(const ProductKey& key) {
  return cache_.peek(key);
}

void GranuleService::promote_ram(const ProductKey& key,
                                 std::shared_ptr<const GranuleProduct> product) {
  cache_.put(key, std::move(product));
}

void GranuleService::wait_disk_writebacks() {
  util::MutexLock lock(writeback_mutex_);
  // Explicit wait loop (not a predicate lambda): the thread-safety analysis
  // only accepts guarded reads it can see under the held lock.
  while (writebacks_pending_ != 0) writeback_cv_.wait(lock);
}

void GranuleService::schedule_writeback(const ProductKey& key,
                                        std::shared_ptr<const GranuleProduct> product) {
  {
    util::MutexLock lock(writeback_mutex_);
    // Each queued write-back pins a whole product. When builds outpace the
    // disk, skip the write-back rather than grow the queue: the RAM tier
    // holds the product, and the key rebuilds on a later miss.
    if (writebacks_pending_ >= kMaxPendingWritebacks) {
      writeback_skipped_total_->inc();
      return;
    }
    writeback_pending_->set(static_cast<double>(++writebacks_pending_));
  }
  writeback_pool_->submit([this, key, product = std::move(product)] {
    // Bounded retry with backoff: a transient disk fault (injected
    // `disk.write`, momentary ENOSPC) should not cost the disk tier an
    // entry that the next restart would otherwise have. The RAM tier still
    // has the product throughout, so serve traffic is unaffected either
    // way — after the last attempt we log the key and move on.
    constexpr std::size_t kWritebackAttempts = 3;
    util::Backoff backoff(util::BackoffConfig{0.5, 20.0}, ProductKeyHash{}(key));
    for (std::size_t attempt = 1;; ++attempt) {
      try {
        disk_->put(key, *product);  // false = not admitted: done, not a failure
        break;
      } catch (const std::exception& e) {
        if (attempt < kWritebackAttempts) {
          backoff.sleep();
          continue;
        }
        writeback_failures_total_->inc();
        IS2_LOG_WARN("disk write-back failed for %s/%s after %zu attempts: %s",
                     key.granule_id.c_str(), atl03::beam_name(key.beam), attempt, e.what());
        break;
      }
    }
    {
      util::MutexLock lock(writeback_mutex_);
      writeback_pending_->set(static_cast<double>(--writebacks_pending_));
    }
    writeback_cv_.notify_all();
  });
}

pipeline::ClassifierBackend& GranuleService::backend_for(pipeline::Backend backend) const {
  switch (backend) {
    case pipeline::Backend::nn:
      return *nn_backend_;
    case pipeline::Backend::decision_tree:
      if (!tree_backend_)
        throw std::invalid_argument(
            "GranuleService: no decision-tree backend configured (pass a TreeFactory)");
      return *tree_backend_;
  }
  throw std::invalid_argument("GranuleService: unknown classifier backend");
}

ProductKey GranuleService::key_for(const ProductRequest& request) const {
  return key_for_kind(request, request.kind);
}

ProductKey GranuleService::key_for_kind(const ProductRequest& request,
                                        pipeline::ProductKind kind) const {
  ProductKey key;
  key.granule_id = request.granule_id;
  key.beam = request.beam;
  key.kind = kind;
  key.backend = request.backend;
  // Backend identity (weights version / tree structure) is inside the
  // product fingerprint; the fingerprint itself is stage-prefix-scoped, so
  // a classification key ignores the sea-surface method and deeper config —
  // one cached classification product serves resume for every method.
  key.config_hash = pipeline::product_fingerprint(pipeline_, request.method,
                                                  backend_for(request.backend), kind);
  return key;
}

void GranuleService::count_request(Priority cls) {
  requests_total_[static_cast<std::size_t>(cls)]->inc();
}

ProductFuture GranuleService::fast_hit(Priority cls,
                                       std::shared_ptr<const GranuleProduct> hit) {
  fast_hits_total_->inc();
  // The fast path records a literal 0 ms sample (bottom histogram bin) —
  // same convention as the pre-obs metrics, and what keeps per-class latency
  // an honest mix of hits and builds. No trace is minted: a RAM probe emits
  // no spans, and an empty trace would only dilute sampling.
  class_service_[static_cast<std::size_t>(cls)]->observe(0.0);
  std::promise<ProductResponse> ready;
  ready.set_value(ProductResponse{std::move(hit), true, 0.0, ServedFrom::ram});
  return ready.get_future().share();
}

ProductFuture GranuleService::submit(const ProductRequest& request) {
  count_request(request.priority);
  const ProductKey key = key_for(request);
  if (auto hit = cache_.get(key)) return fast_hit(request.priority, std::move(hit));
  return scheduler_->submit(request, key);
}

std::optional<ProductFuture> GranuleService::try_submit(
    const ProductRequest& request, std::optional<Priority>* shed_class) {
  count_request(request.priority);
  const ProductKey key = key_for(request);
  if (auto hit = cache_.get(key)) {
    if (shed_class) shed_class->reset();
    return fast_hit(request.priority, std::move(hit));
  }
  return scheduler_->try_submit(request, key, shed_class);
}

std::size_t GranuleService::warm(const std::vector<ProductRequest>& requests,
                                 mapred::Engine& engine) {
  std::atomic<std::size_t> built{0};
  engine.run_stage(requests.size(), [&](std::size_t i) {
    const ProductKey key = key_for(requests[i]);
    if (cache_.contains(key)) return;
    // build() rechecks the cache, so a concurrent scheduler job for the
    // same key costs at most one wasted build — never a wrong answer.
    const ProductResponse response = build(requests[i], key);
    if (!response.from_cache) built.fetch_add(1, std::memory_order_relaxed);
  });
  return built.load();
}

std::shared_ptr<const GranuleProduct> GranuleService::probe_resume(
    const ProductRequest& request, bool* sibling) {
  using pipeline::ProductKind;
  // Deepest shallower kind first: resuming from seasurface runs one stage,
  // from classification two — either way no shard IO and no inference.
  // Keys are re-derived per kind (prefix-scoped fingerprints), so e.g. a
  // classification product cached under any sea-surface method seeds this
  // request's method too. peek(), not get(): these probes are speculative,
  // not client requests, and must not skew the tiers' hit-rate stats.
  *sibling = false;
  for (int k = static_cast<int>(request.kind) - 1; k >= 0; --k) {
    const ProductKey shallow = key_for_kind(request, static_cast<ProductKind>(k));
    if (auto hit = cache_.peek(shallow)) return hit;
    if (disk_) {
      if (auto hit = disk_->peek(shallow)) {
        cache_.put(shallow, hit);  // promote like any disk hit
        return hit;
      }
    }
  }

  // Siblings: the seasurface and freeboard stages only read segments and
  // classes, so every product of this granule, beam and backend carries
  // this request's classification prefix bit for bit. Sibling keys come
  // from the current config and backend, so a product built under another
  // classification prefix never matches. The request's own key and its
  // shallower kinds were probed above.
  std::array<ProductKey, 2 * seasurface::kMethods> keys;
  std::size_t n = 0;
  ProductRequest other = request;
  for (std::size_t m = 0; m < seasurface::kMethods; ++m) {
    other.method = static_cast<seasurface::Method>(m);
    for (const ProductKind kind : {ProductKind::freeboard, ProductKind::seasurface})
      if (other.method != request.method || kind > request.kind)
        keys[n++] = key_for_kind(other, kind);
  }
  // All of RAM before any disk: a resident sibling costs a lock, a disk one
  // a file read. A disk sibling is not promoted — only the product the
  // request asked for earns a RAM slot.
  *sibling = true;
  for (std::size_t i = 0; i < n; ++i)
    if (auto hit = cache_.peek(keys[i])) return hit;
  if (disk_)
    for (std::size_t i = 0; i < n; ++i)
      if (disk_->contains(keys[i]))
        if (auto hit = disk_->peek(keys[i])) return hit;
  return nullptr;
}

ProductResponse GranuleService::build(const ProductRequest& request, const ProductKey& key) {
  // Another job may have cached the key since it was queued. peek(), not
  // get(): submit() already counted this request's RAM lookup and recorded
  // it in the admission sketch, and warm() is not client traffic.
  if (auto hit = cache_.peek(key))
    return ProductResponse{std::move(hit), true, 0.0, ServedFrom::ram};

  util::Timer build_timer;
  util::Timer stage_timer;

  // DISK TIER: probed before any shard IO — a disk hit deserializes one
  // file and promotes it to RAM instead of re-reading every chunk shard
  // through ShardIndex::load_merged and re-running inference.
  if (disk_) {
    obs::SpanScope span("disk_probe");
    if (auto product = disk_->get(key)) {
      cache_.put(key, product);
      stage_disk_load_->observe(stage_timer.millis());
      return ProductResponse{std::move(product), true, 0.0, ServedFrom::disk};
    }
    stage_timer.reset();
  }

  // RESUME: kinds are strict stage-graph prefixes, so a cached shallower
  // product for the same (granule, beam, config, backend), or any sibling
  // product of that beam, seeds the build past its stages — only the
  // missing suffix runs.
  bool sibling = false;
  std::shared_ptr<const GranuleProduct> seed;
  {
    obs::SpanScope span("resume_probe");
    seed = probe_resume(request, &sibling);
  }

  pipeline::Artifacts art;
  atl03::Granule merged;  // outlives the build (Artifacts borrows the input)
  double shard_ms = 0.0;
  if (seed) {
    art = pipeline::Artifacts::resume(seed->segments, seed->classes);
    // A shallower seasurface product holds this request's sea surface; a
    // sibling's may be another method's, so a sibling seeds only its prefix.
    if (!sibling && seed->kind >= pipeline::ProductKind::seasurface) {
      art.sea_surface = seed->sea_surface;
      art.mark_done(pipeline::StageId::seasurface);
    }
    (sibling ? resumed_sibling_total_ : resumed_shallower_total_)->inc();
  } else {
    const std::vector<std::string>* files = index_.find(request.granule_id, request.beam);
    if (!files)
      throw std::runtime_error("GranuleService: unknown (granule, beam): " +
                               request.granule_id + "/" + atl03::beam_name(request.beam));
    obs::SpanScope span("shard_load");
    stage_timer.reset();
    merged = ShardIndex::load_merged(*files);
    shard_ms = stage_timer.millis();
    art = pipeline::Artifacts::from_beam(merged, merged.beams[0]);
  }

  pipeline::StageTrace trace;
  builder_.build(art, request.kind, &backend_for(request.backend), request.method, &trace);

  // One sample per stage that ran; a resumed build's skipped prefix records
  // nothing. `load` is a from-shards build's shard IO plus the stages that
  // turn photons into segments.
  for (std::size_t i = 0; i < pipeline::kNumStages; ++i)
    if (trace.ran[i]) stage_builder_[i]->observe(trace.ms[i]);
  if (!seed) {
    using pipeline::StageId;
    stage_load_->observe(shard_ms + trace.at(StageId::preprocess) +
                         trace.at(StageId::resample) + trace.at(StageId::fpb));
  }

  auto product = std::make_shared<GranuleProduct>();
  product->granule_id = request.granule_id;
  product->beam = request.beam;
  product->kind = request.kind;
  product->segments = std::move(art.segments);
  product->classes = std::move(art.classes);
  if (request.kind >= pipeline::ProductKind::seasurface)
    product->sea_surface = std::move(art.sea_surface);
  if (request.kind >= pipeline::ProductKind::freeboard)
    product->freeboard = std::move(art.freeboard);
  cache_.put(key, product);
  if (disk_) schedule_writeback(key, product);

  stage_total_->observe(build_timer.millis());
  return ProductResponse{std::move(product), false, 0.0, ServedFrom::build};
}

ServiceMetrics GranuleService::metrics() const {
  ServiceMetrics out;
  out.cache = cache_.stats();
  if (disk_) out.disk = disk_->stats();
  out.scheduler = scheduler_->stats();
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    out.by_class[c].requests = requests_total_[c]->value();
    out.requests += out.by_class[c].requests;
    out.by_class[c].latency = class_service_[c]->snapshot();
  }
  out.fast_hits = fast_hits_total_->value();
  out.writeback_failures = writeback_failures_total_->value();
  out.writeback_skipped = writeback_skipped_total_->value();
  out.resumed_builds = resumed_shallower_total_->value() + resumed_sibling_total_->value();
  out.inference_batches = nn_backend_->batches();
  out.inference_windows = nn_backend_->windows();
  out.load = stage_load_->snapshot();
  for (std::size_t i = 0; i < pipeline::kNumStages; ++i)
    out.builder[i] = stage_builder_[i]->snapshot();
  out.disk_load = stage_disk_load_->snapshot();
  out.total = stage_total_->snapshot();
  out.queue_wait = queue_wait_hist_->snapshot();
  out.service_time = service_time_hist_->snapshot();
  return out;
}

obs::RegistrySnapshot GranuleService::obs_snapshot() const {
  // Refresh what is only sampled on demand: the cache tiers' bytes/entries
  // gauges and the scheduler's depth gauges are set inside stats(), and the
  // inference totals live in the nn backend (delta-synced here so two
  // concurrent snapshots cannot double-count). Counters need no refresh.
  (void)cache_.stats();
  if (disk_) (void)disk_->stats();
  (void)scheduler_->stats();
  {
    util::MutexLock lock(obs_sync_mutex_);
    const std::uint64_t batches = nn_backend_->batches();
    const std::uint64_t windows = nn_backend_->windows();
    inference_batches_total_->inc(batches - exported_batches_);
    inference_windows_total_->inc(windows - exported_windows_);
    exported_batches_ = batches;
    exported_windows_ = windows;
  }
  return registry_.snapshot();
}

}  // namespace is2::serve
