// Sharded cache for served granule products (the RAM tier of the two-tier
// `is2::serve` product cache; the disk tier is serve/disk_cache).
// Entries are keyed by ProductKey = (granule_id, beam, config-hash) so a
// config or model change never serves stale products, and eviction is
// byte-budgeted: each shard evicts until it fits, so total resident bytes
// stay near the budget no matter how large individual products are.
// Sharding (key-hash -> shard) keeps lock contention low under concurrent
// mixed hit/miss traffic.
//
// Admission is by frequency (TinyLFU): each shard counts its client lookups
// in a FrequencySketch. The newest insert is the shard's window entry and is
// always resident. When the next insert pushes it out of the window, it
// becomes the candidate and stays only if it is read at least as often as
// the least recently used entry it would displace; otherwise it goes
// instead (an admission rejection, also counted as an eviction). Ties go to
// the candidate, so with no frequency information eviction is plain LRU.
//
// Ownership / threading contract: every method is thread-safe; a call locks
// exactly one shard mutex (stats() locks each in turn) and performs no IO,
// so nothing here blocks beyond a short critical section. Hit, miss,
// insertion, eviction and rejection counters are registry Counters (relaxed
// atomics) incremented where the event happens, so they are exact at any
// time. Products are immutable once inserted and handed out as
// shared_ptr<const>, so a hit stays valid after eviction; callers never copy
// product bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "atl03/types.hpp"
#include "freeboard/freeboard.hpp"
#include "obs/registry.hpp"
#include "pipeline/kinds.hpp"
#include "resample/segmenter.hpp"
#include "seasurface/detector.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::serve {

/// Cache identity of one served product. `config_hash` is the stage-prefix-
/// scoped `pipeline::product_fingerprint` — only the config inputs the
/// kind's stages read, plus classifier backend identity — so e.g. a
/// classification product keeps one identity across sea-surface methods.
/// `kind` and `backend` are additionally explicit fields: the resume probe
/// re-derives shallower keys per kind (see GranuleService::key_for_kind).
struct ProductKey {
  std::string granule_id;
  atl03::BeamId beam = atl03::BeamId::Gt1r;
  std::uint64_t config_hash = 0;
  pipeline::ProductKind kind = pipeline::ProductKind::freeboard;
  pipeline::Backend backend = pipeline::Backend::nn;

  bool operator==(const ProductKey& o) const {
    return config_hash == o.config_hash && beam == o.beam && kind == o.kind &&
           backend == o.backend && granule_id == o.granule_id;
  }
};

struct ProductKeyHash {
  std::size_t operator()(const ProductKey& key) const;
};

/// Count-min estimate of how often each key was looked up recently: the
/// admission filter of both cache tiers (Einziger, Friedman & Manes,
/// "TinyLFU: A Highly Efficient Cache Admission Policy", ACM TOS 2017).
/// `record` adds one to the key's counter in each of kRows rows, every row
/// indexed by its own mix of the ProductKeyHash; `estimate` reads the
/// smallest of them, so collisions can only raise an estimate: within one
/// aging period it is never below the key's true count. Every kAgingPeriod
/// records, all counters and the record count are halved, so the sketch
/// follows popularity shifts. A counter never exceeds the record count,
/// which stays below kAgingPeriod, so the counters saturate there and never
/// wrap.
///
/// No lock of its own: each owner keeps it under the mutex that guards the
/// rest of its state.
class FrequencySketch {
 public:
  static constexpr std::size_t kRows = 4;
  static constexpr std::size_t kWidth = 512;  ///< counters per row
  static constexpr std::uint32_t kAgingPeriod = 4096;

  void record(std::size_t key_hash);
  std::uint32_t estimate(std::size_t key_hash) const;

 private:
  static std::size_t slot(std::size_t key_hash, std::size_t row);

  std::array<std::array<std::uint32_t, kWidth>, kRows> counters_{};
  std::uint32_t records_ = 0;  ///< counts toward the next halving; halved with it
};

/// Materialized serving product for one (granule, beam, config, kind,
/// backend). How deep the artifact set goes is the key's `ProductKind`: a
/// `classification` product carries segments + classes only (sea_surface /
/// freeboard empty), and — kinds being strict stage-graph prefixes — seeds a
/// deeper build via `pipeline::Artifacts::resume`.
struct GranuleProduct {
  std::string granule_id;
  atl03::BeamId beam = atl03::BeamId::Gt1r;
  pipeline::ProductKind kind = pipeline::ProductKind::freeboard;
  std::vector<resample::Segment> segments;          ///< 2m resampled, FPB-corrected
  std::vector<atl03::SurfaceClass> classes;         ///< classifier output per segment
  seasurface::SeaSurfaceProfile sea_surface;        ///< empty below seasurface kind
  freeboard::FreeboardProduct freeboard;            ///< empty below freeboard kind

  /// Resident-size estimate used for byte-budget eviction.
  std::size_t approx_bytes() const;
};

/// Value snapshot of one RAM tier: the registry counters plus the resident
/// size, summed over the shards at the time of the call.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< including admission rejections
  std::uint64_t insertions = 0;
  /// Candidates evicted because the entry they would have displaced was
  /// read more often.
  std::uint64_t admission_rejections = 0;
  std::size_t bytes = 0;    ///< resident product bytes
  std::size_t entries = 0;  ///< resident product count

  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class ProductCache {
 public:
  /// `byte_budget` is split evenly across `num_shards` independent shards.
  /// The cache counts into `is2_cache_*{tier="ram"}` instruments of
  /// `registry` (which must outlive the cache), or of a private registry
  /// when none is given.
  explicit ProductCache(std::size_t byte_budget, std::size_t num_shards = 8,
                        obs::Registry* registry = nullptr);

  ProductCache(const ProductCache&) = delete;
  ProductCache& operator=(const ProductCache&) = delete;

  /// Look up a product and record the lookup in the shard's frequency
  /// sketch, hit or miss; a hit refreshes its LRU position.
  std::shared_ptr<const GranuleProduct> get(const ProductKey& key);

  /// Insert (or refresh) a product as the shard's window entry, then evict
  /// until the shard fits its budget again: the previous window entry stays
  /// only if it is read at least as often as each least-recently-used entry
  /// it displaces (see the admission rule above). The entry just inserted is
  /// never evicted by its own insertion, so an oversized product still
  /// serves the requests that are already waiting on it.
  void put(const ProductKey& key, std::shared_ptr<const GranuleProduct> product);

  /// Lookup without touching the hit/miss counters or the frequency sketch
  /// (a hit still refreshes LRU order — it is a real use). For speculative
  /// probes that are not client requests, e.g. the service's shallower-kind
  /// resume probe, so stats keep reporting the client-visible hit rate.
  std::shared_ptr<const GranuleProduct> peek(const ProductKey& key);

  /// Lookup without touching LRU order, counters or the sketch.
  bool contains(const ProductKey& key) const;

  /// Counters plus resident bytes/entries; also refreshes the
  /// `is2_cache_bytes` / `is2_cache_entries` gauges.
  CacheStats stats() const;

  std::size_t byte_budget() const { return byte_budget_; }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    ProductKey key;
    std::shared_ptr<const GranuleProduct> product;
    std::size_t bytes = 0;
    std::size_t hash = 0;  ///< ProductKeyHash of key
  };
  struct Shard {
    Shard() : window(lru.end()) {}

    mutable util::Mutex mutex;
    std::list<Entry> lru GUARDED_BY(mutex);  ///< front = most recently used
    std::unordered_map<ProductKey, std::list<Entry>::iterator, ProductKeyHash> index
        GUARDED_BY(mutex);
    std::size_t bytes GUARDED_BY(mutex) = 0;
    /// The newest insert while it is resident; lru.end() otherwise.
    std::list<Entry>::iterator window GUARDED_BY(mutex);
    FrequencySketch sketch GUARDED_BY(mutex);  ///< get() lookups
  };

  Shard& shard_for(std::size_t key_hash) const;

  std::size_t byte_budget_;
  std::size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Instruments, set once at construction (stable for the registry's
  /// lifetime). Owned registry only when none was passed in.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* hits_total_ = nullptr;
  obs::Counter* misses_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* insertions_total_ = nullptr;
  obs::Counter* rejections_total_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace is2::serve
