// GranuleService — the serving façade of the `is2::serve` subsystem.
//
// Wires the `is2::pipeline::ProductBuilder` stage graph behind a single
// asynchronous `submit(request) -> future<ProductResponse>` API:
//
//   ShardIndex (h5lite shard files, merged per beam)
//     -> pipeline::ProductBuilder (preprocess -> 2m resample -> FPB ->
//        features -> ClassifierBackend -> sea surface -> freeboard),
//        stopped at the request's ProductKind, with the classifier chosen
//        per request (nn replica pool or ATL07-style decision tree)
//
// Requests name a ProductKind (classification / seasurface / freeboard) and
// a Backend; both are part of the cache key on each tier. Kinds are strict
// stage-graph prefixes, so on a miss the service probes the caches for the
// same key at shallower kinds (deepest first), then for a *sibling* — any
// other cached product of the same granule, beam and backend, whatever its
// kind or sea-surface method — and *resumes* the build from that product's
// artifacts: a freeboard request over a cached classification product, or
// over another method's freeboard product, runs only seasurface +
// freeboard: no shard IO, no inference.
//
// Two cache tiers answer repeat requests without re-running the pipeline: a
// sharded in-RAM `ProductCache`, then (when `ServiceConfig::
// disk_cache_dir` is set) a persistent `DiskCache` probed before any shard
// IO — a RAM miss that disk-hits deserializes one file, promotes the
// product to RAM and never touches the shards. Both tiers admit by
// frequency: each counts its client lookups, once per request, and keeps a
// newcomer only when it is read at least as often as what it displaces.
// Products built cold are written back to disk asynchronously on a
// dedicated write-back thread, so the build's caller never waits for disk;
// a full write-back backlog skips the write instead of queueing it. A coalescing `BatchScheduler`
// makes cold keys single-flight, applies queue backpressure, and admits by
// `Priority` class (weighted dequeue; background shed first under
// saturation). Every builder stage, the shard load, disk hits and whole
// builds are latency-instrumented into the service's `obs::Registry`
// (`is2_serve_stage_ms{stage}` histograms), end-to-end service latency is
// additionally split per priority class, and `metrics()` reads it all back
// as one `ServiceMetrics` snapshot. `warm()` bulk-prefetches products onto
// a `mapred::Engine`, the same cluster abstraction the batch jobs use.
//
// Threading contract: every public method is thread-safe. submit() blocks
// only while the scheduler queue is full; try_submit() never blocks;
// warm() and wait_disk_writebacks() block until done; shutdown() drains
// accepted work, then pending disk write-backs, and is idempotent.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atl03/granule.hpp"
#include "baseline/decision_tree.hpp"
#include "core/config.hpp"
#include "geo/corrections.hpp"
#include "mapred/engine.hpp"
#include "nn/model.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pipeline/classifier.hpp"
#include "pipeline/product_builder.hpp"
#include "serve/disk_cache.hpp"
#include "serve/product_cache.hpp"
#include "serve/scheduler.hpp"
#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace is2::serve {

/// Maps (granule_id, beam) to the ordered along-track chunk shard files
/// written by `core::write_shards` (shard ids look like
/// "<granule_id>#<beam>c<chunk>").
class ShardIndex {
 public:
  ShardIndex() = default;

  /// Read every shard file's metadata and group by (granule, beam).
  static ShardIndex build(const std::vector<std::string>& shard_files);

  /// Ordered chunk files for one beam; nullptr when unknown.
  const std::vector<std::string>* find(const std::string& granule_id,
                                       atl03::BeamId beam) const;

  /// Every (granule_id, beam) this index can serve.
  std::vector<std::pair<std::string, atl03::BeamId>> entries() const;

  std::size_t size() const { return beams_.size(); }

  /// Load the ordered chunk shards of one beam and merge them back into a
  /// single-beam granule (photons concatenated in along-track order,
  /// background bins deduplicated across chunk overlaps). This is the
  /// expensive per-request IO (a full decode of every chunk): the service
  /// only reaches it after both cache tiers miss — a disk-tier hit never
  /// re-reads shards.
  static atl03::Granule load_merged(const std::vector<std::string>& files);

 private:
  // key: (granule_id, beam as int) -> ordered chunk file list
  std::map<std::pair<std::string, int>, std::vector<std::string>> beams_;
};

/// Per-priority-class slice of the service metrics: how much traffic the
/// class sent and the service latency it observed. Fast RAM hits record ~0
/// (bottom histogram bin); scheduled jobs record queue wait + execution
/// (disk load or full build) once per job at completion — coalesced waiters
/// share that job's sample, so under same-key races latency.stats.count()
/// can be below requests.
struct ClassMetrics {
  std::uint64_t requests = 0;
  obs::HistogramMetric::Snapshot latency;  ///< RAM probe ~0 / queue wait + disk load / + build
};

/// Value snapshot of one service's counters and latency distributions, read
/// from its registry (the latencies are `is2_serve_*_ms` histogram
/// snapshots; the cache and scheduler stats come from their stats()).
struct ServiceMetrics {
  CacheStats cache;          ///< RAM tier
  DiskCacheStats disk;       ///< disk tier (zeroed when no disk tier; the
                             ///< fleet-wide numbers when the tier is shared)
  SchedulerStats scheduler;
  std::uint64_t requests = 0;   ///< submit + try_submit calls
  std::uint64_t fast_hits = 0;  ///< answered from RAM cache without dispatch
  std::uint64_t writeback_failures = 0;  ///< async disk writes that threw
  /// Write-backs not queued because kMaxPendingWritebacks were pending.
  std::uint64_t writeback_skipped = 0;
  std::uint64_t inference_batches = 0;
  std::uint64_t inference_windows = 0;
  obs::HistogramMetric::Snapshot load;       ///< shard read + preprocess + resample + FPB
  obs::HistogramMetric::Snapshot disk_load;  ///< disk-tier hit: read + deserialize + promote
  obs::HistogramMetric::Snapshot total;      ///< whole build (cold only; resumed = suffix)
  /// Scheduled jobs only (the fast RAM path never queues): how long the job
  /// waited for a worker, and the full queue wait + execution. service_time
  /// minus queue_wait is pure execution — the split the benches trend.
  obs::HistogramMetric::Snapshot queue_wait;
  obs::HistogramMetric::Snapshot service_time;
  std::array<ClassMetrics, kPriorityClasses> by_class;  ///< index = Priority
  /// Per-stage distributions of the builds this service ran, indexed by
  /// pipeline::StageId (a stage a resumed build skipped records nothing;
  /// shard IO is serve-side and lives in `load`, not here).
  std::array<obs::HistogramMetric::Snapshot, pipeline::kNumStages> builder{};
  /// Builds seeded from a cached product instead of the shards: a shallower
  /// kind of the request's key or a sibling product of the same beam
  /// (split by the `seed` label of is2_serve_resumed_builds_total).
  std::uint64_t resumed_builds = 0;
};

struct ServiceConfig {
  std::size_t workers = 4;            ///< scheduler worker threads / model replicas
  std::size_t queue_capacity = 64;    ///< bounded request queue (backpressure)
  std::size_t cache_bytes = 256u << 20;
  std::size_t cache_shards = 8;
  std::size_t inference_batch_windows = 256;  ///< windows per forward pass
  /// Batch-level inference parallelism: size of a shared ThreadPool that
  /// fans one granule's windows out in contiguous batch-aligned spans, each
  /// span on its own model replica. 0 = off (each build runs inference on
  /// its scheduler worker alone, parallelism comes from replicas only).
  /// Predictions are bit-identical for any value — windows are
  /// row-independent — so this is purely a latency knob for wide granules.
  std::size_t inference_threads = 0;
  std::uint64_t model_version = 0;    ///< bump when weights change
  /// Disk cache tier; empty = RAM tier only. Products persist here across
  /// service restarts (keyed by config/model hash, so stale entries are
  /// never served) and are written back asynchronously after cold builds.
  std::string disk_cache_dir;
  std::size_t disk_cache_bytes = 1ull << 30;
  /// Externally owned disk tier shared by several services in one process —
  /// how a `serve::Cluster` gives its nodes a common cold tier without two
  /// DiskCache instances fighting over one directory (the manifest is
  /// per-instance; see disk_cache.hpp). Non-owning: must outlive the
  /// service. When set, disk_cache_dir / disk_cache_bytes are ignored and
  /// the tier's stats/instruments live with the owner's registry.
  DiskCache* shared_disk = nullptr;
  /// Scheduler weighted-dequeue shares (interactive, batch, background).
  ClassWeights class_weights = {8, 3, 1};
  /// obs tracing knobs for the service-owned Tracer. Sampling is tail-based
  /// and per trace id; error/shed/slow traces are always kept.
  double trace_sample_rate = 1.0;          ///< probability a trace is kept
  std::size_t trace_ring_capacity = 8192;  ///< spans retained (newest win)
  double trace_slow_ms = 1000.0;           ///< traces this slow always kept
};

/// One serving node: the unit `serve::Cluster` routes to. Thread-safe; the
/// cluster calls it from many client threads concurrently.
class GranuleService {
 public:
  /// Builds one model replica per worker; every invocation must produce an
  /// architecturally and numerically identical model (e.g. construct and
  /// then load the same weight snapshot).
  using ModelFactory = std::function<nn::Sequential()>;
  /// Optional second classifier backend: a fitted ATL07-style decision tree
  /// (every invocation must produce a structurally identical tree). When
  /// absent, submit()/try_submit()/warm() throw std::invalid_argument
  /// synchronously for requests naming Backend::decision_tree — the key
  /// cannot even be formed without the backend's identity.
  using TreeFactory = std::function<baseline::DecisionTree()>;

  /// Most disk write-backs queued or running at once. A build that finds
  /// the backlog full skips its write-back (counted in
  /// is2_serve_writeback_skipped_total), so the queue's memory stays
  /// bounded when builds outpace the disk.
  static constexpr std::size_t kMaxPendingWritebacks = 64;

  GranuleService(const ServiceConfig& config, const core::PipelineConfig& pipeline,
                 const geo::GeoCorrections& corrections, ShardIndex index,
                 ModelFactory model_factory, resample::FeatureScaler scaler,
                 TreeFactory tree_factory = {});
  ~GranuleService();

  GranuleService(const GranuleService&) = delete;
  GranuleService& operator=(const GranuleService&) = delete;

  /// Asynchronous serve: cache fast path resolves immediately; cold keys
  /// dispatch through the coalescing scheduler (blocking when the queue is
  /// full). Unknown (granule, beam) resolves to a broken future.
  ProductFuture submit(const ProductRequest& request);

  /// Load-shedding variant: never blocks. Under saturation a queued job of a
  /// class strictly below the request's is displaced first (background
  /// before batch); only when nothing lower is queued is the request itself
  /// shed (std::nullopt). `shed_class` reports which class paid, when
  /// anything was shed.
  std::optional<ProductFuture> try_submit(
      const ProductRequest& request,
      std::optional<Priority>* shed_class = nullptr);

  /// Bulk cache warm-up on a map-reduce engine (one task per request).
  /// Returns the number of products actually built (cache misses).
  std::size_t warm(const std::vector<ProductRequest>& requests,
                   mapred::Engine& engine);

  /// Cache key a request resolves to. Services built from the same config
  /// and model produce identical keys — the property that lets the cluster
  /// route by key and fetch products across nodes.
  ProductKey key_for(const ProductRequest& request) const;

  ServiceMetrics metrics() const;

  /// The service's instrument registry: every `is2_serve_*`, `is2_sched_*`
  /// and `is2_cache_*` metric of this instance lives here. Counters and
  /// histograms are exact at any moment; the size and queue gauges and the
  /// inference totals are refreshed by obs_snapshot(), which is what an
  /// exposition endpoint should export. Valid for the service lifetime.
  const obs::Registry& registry() const { return registry_; }
  /// The service's span ring (feed `trace_spans()` to `obs::to_perfetto`).
  const obs::Tracer& tracer() const { return tracer_; }

  /// Registry snapshot with the cache size gauges, scheduler gauges and
  /// inference totals refreshed first — what an exposition endpoint should
  /// serve; the cluster merges these under a per-node `node` label.
  obs::RegistrySnapshot obs_snapshot() const;

  /// Peer-fetch surface: speculative RAM-tier probe by exact key (no
  /// hit/miss counters — these probes are router traffic, not client
  /// requests; LRU refreshed on hit) and insert of a product fetched from a
  /// peer. The cluster moves products across nodes with these instead of
  /// re-running shard IO + inference.
  std::shared_ptr<const GranuleProduct> peek_ram(const ProductKey& key);
  void promote_ram(const ProductKey& key, std::shared_ptr<const GranuleProduct> product);

  /// Best-effort snapshot of the trace ring, oldest first.
  std::vector<obs::Span> trace_spans() const { return tracer_.spans(); }

  const ServiceConfig& config() const { return config_; }
  const ShardIndex& index() const { return index_; }
  /// Disk tier handle (nullptr when neither disk_cache_dir nor shared_disk
  /// is set; the shared tier when the service runs inside a cluster).
  const DiskCache* disk_cache() const { return disk_; }

  /// Block until every scheduled asynchronous disk write-back has landed
  /// (tests and orderly restarts; normal traffic never needs this).
  void wait_disk_writebacks();

  /// Drain accepted work, then pending disk write-backs (idempotent). After
  /// shutdown() the submit flavors return broken futures.
  void shutdown();

 private:
  ProductResponse build(const ProductRequest& request, const ProductKey& key);
  /// The backend a request resolves to; throws when it isn't configured.
  pipeline::ClassifierBackend& backend_for(pipeline::Backend backend) const;
  /// `key_for` with the kind overridden (prefix-scoped fingerprint per
  /// kind: the resume probe's key derivation).
  ProductKey key_for_kind(const ProductRequest& request, pipeline::ProductKind kind) const;
  /// The resume probe, speculative (no hit/miss counters). First the
  /// request's key at every shallower kind, deepest first, RAM then disk
  /// (a disk hit is promoted). Then the siblings (`*sibling` set): the
  /// seasurface and freeboard products of this granule, beam and backend
  /// under every other method, plus this method at deeper kinds — all of
  /// RAM first, then disk (manifest checked before any file read, nothing
  /// promoted). Returns the seed product, or nullptr.
  std::shared_ptr<const GranuleProduct> probe_resume(const ProductRequest& request,
                                                     bool* sibling);
  void count_request(Priority cls);
  /// ProductResponse for a RAM-tier hit + the fast-path bookkeeping (fast-hit
  /// counter, ~0 class latency sample).
  ProductFuture fast_hit(Priority cls, std::shared_ptr<const GranuleProduct> hit);
  void schedule_writeback(const ProductKey& key,
                          std::shared_ptr<const GranuleProduct> product);

  ServiceConfig config_;
  core::PipelineConfig pipeline_;
  ShardIndex index_;

  /// Observability spine — declared before every component that registers
  /// instruments in it (caches, scheduler) or publishes spans (builder via
  /// the ambient TraceBinding), so it outlives them all.
  obs::Registry registry_;
  obs::Tracer tracer_;
  /// Hot-path instrument handles (owned by registry_; stable addresses).
  std::array<obs::Counter*, kPriorityClasses> requests_total_{};
  obs::Counter* fast_hits_total_ = nullptr;
  obs::Counter* writeback_failures_total_ = nullptr;
  obs::Counter* writeback_skipped_total_ = nullptr;
  obs::Gauge* writeback_pending_ = nullptr;  ///< mirrors writebacks_pending_
  obs::Counter* resumed_shallower_total_ = nullptr;  ///< seed="shallower"
  obs::Counter* resumed_sibling_total_ = nullptr;    ///< seed="sibling"
  obs::HistogramMetric* stage_load_ = nullptr;
  std::array<obs::HistogramMetric*, pipeline::kNumStages> stage_builder_{};  ///< by StageId
  obs::HistogramMetric* stage_disk_load_ = nullptr;
  obs::HistogramMetric* stage_total_ = nullptr;
  obs::HistogramMetric* queue_wait_hist_ = nullptr;
  obs::HistogramMetric* service_time_hist_ = nullptr;
  std::array<obs::HistogramMetric*, kPriorityClasses> class_service_{};
  obs::Counter* inference_batches_total_ = nullptr;
  obs::Counter* inference_windows_total_ = nullptr;
  /// Serializes the lazy inference-counter sync in obs_snapshot() (two
  /// concurrent snapshots must not double-count one delta).
  mutable util::Mutex obs_sync_mutex_;
  mutable std::uint64_t exported_batches_ GUARDED_BY(obs_sync_mutex_) = 0;
  mutable std::uint64_t exported_windows_ GUARDED_BY(obs_sync_mutex_) = 0;

  pipeline::ProductBuilder builder_;  ///< the one pipeline implementation
  /// Classifier backends, selected per request. The nn backend owns the
  /// model replica checkout pool (sized workers + inference_threads) and the
  /// batch-level inference ThreadPool; the tree backend is optional.
  std::unique_ptr<pipeline::NnBackend> nn_backend_;
  std::unique_ptr<pipeline::DecisionTreeBackend> tree_backend_;
  ProductCache cache_;
  /// Disk tier: owned when built from disk_cache_dir, borrowed when
  /// `ServiceConfig::shared_disk` points at a cluster-owned tier. `disk_`
  /// is the one the hot path reads (nullptr = no tier) and outlives the
  /// write-back pool below either way.
  std::unique_ptr<DiskCache> owned_disk_;
  DiskCache* disk_ = nullptr;

  // Asynchronous disk write-back: one thread so cold builds never wait for
  // serialization + fsync-ish IO, with a drain counter for orderly restarts
  // that also caps the backlog at kMaxPendingWritebacks.
  util::Mutex writeback_mutex_;
  util::CondVar writeback_cv_;
  std::size_t writebacks_pending_ GUARDED_BY(writeback_mutex_) = 0;
  std::unique_ptr<util::ThreadPool> writeback_pool_;

  std::unique_ptr<BatchScheduler> scheduler_;  ///< last: destroyed first
};

}  // namespace is2::serve
