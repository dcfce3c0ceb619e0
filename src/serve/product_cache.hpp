// Sharded LRU cache for served granule products (the RAM tier of the
// two-tier `is2::serve` product cache; the disk tier is serve/disk_cache).
// Entries are keyed by ProductKey = (granule_id, beam, config-hash) so a
// config or model change never serves stale products, and eviction is
// byte-budgeted: each shard evicts from its least-recently-used end until it
// fits, so total resident bytes stay near the budget no matter how large
// individual products are. Sharding (key-hash -> shard) keeps lock
// contention low under concurrent mixed hit/miss traffic.
//
// Ownership / threading contract: every method is thread-safe; a call locks
// exactly one shard mutex (stats()/clear() lock each in turn) and performs
// no IO, so nothing here blocks beyond a short critical section. Hit, miss,
// insertion and eviction counters are registry Counters (relaxed atomics)
// incremented where the event happens, so they are exact at any time.
// Products are immutable once inserted and handed out as shared_ptr<const>,
// so a hit stays valid after eviction; callers never copy product bytes.
#pragma once

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
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::size_t bytes = 0;    ///< resident product bytes
  std::size_t entries = 0;  ///< resident product count

  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class ProductCache {
 public:
  /// `byte_budget` is split evenly across `num_shards` independent LRU lists.
  /// The cache counts into `is2_cache_*{tier="ram"}` instruments of
  /// `registry` (which must outlive the cache), or of a private registry
  /// when none is given.
  explicit ProductCache(std::size_t byte_budget, std::size_t num_shards = 8,
                        obs::Registry* registry = nullptr);

  ProductCache(const ProductCache&) = delete;
  ProductCache& operator=(const ProductCache&) = delete;

  /// Look up a product; a hit refreshes its LRU position.
  std::shared_ptr<const GranuleProduct> get(const ProductKey& key);

  /// Insert (or refresh) a product, then evict least-recently-used entries
  /// until the shard fits its budget again. The entry just inserted is never
  /// evicted by its own insertion, so an oversized product still serves the
  /// requests that are already waiting on it.
  void put(const ProductKey& key, std::shared_ptr<const GranuleProduct> product);

  /// Lookup without touching the hit/miss counters (a hit still refreshes
  /// LRU order — it is a real use). For speculative probes that are not
  /// client requests, e.g. the service's shallower-kind resume probe, so
  /// stats keep reporting the client-visible hit rate.
  std::shared_ptr<const GranuleProduct> peek(const ProductKey& key);

  /// Lookup without touching LRU order or hit/miss counters.
  bool contains(const ProductKey& key) const;

  /// Counters plus resident bytes/entries; also refreshes the
  /// `is2_cache_bytes` / `is2_cache_entries` gauges.
  CacheStats stats() const;
  void clear();

  std::size_t byte_budget() const { return byte_budget_; }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    ProductKey key;
    std::shared_ptr<const GranuleProduct> product;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable util::Mutex mutex;
    std::list<Entry> lru GUARDED_BY(mutex);  ///< front = most recently used
    std::unordered_map<ProductKey, std::list<Entry>::iterator, ProductKeyHash> index
        GUARDED_BY(mutex);
    std::size_t bytes GUARDED_BY(mutex) = 0;
  };

  Shard& shard_for(const ProductKey& key) const;

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
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace is2::serve
