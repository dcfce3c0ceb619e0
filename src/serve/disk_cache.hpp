// Disk tier of the two-tier `is2::serve` product cache: fully built
// `GranuleProduct`s persisted as versioned binary files, so a restarted (or
// RAM-evicted) service answers repeat requests by deserializing one file
// instead of re-reading every shard and re-running inference.
//
// Ownership / threading contract:
//  * One `DiskCache` owns one directory; do not point two instances at the
//    same directory in the same process (cross-process sharing is safe for
//    readers because writes are atomic rename-on-publish, but the LRU
//    manifests will disagree about residency).
//  * All public methods are thread-safe. The manifest mutex covers only
//    index/LRU bookkeeping plus rename/delete of cache files: `get()`
//    snapshots the entry's path + generation under the lock and performs
//    the file read + deserialization unlocked (one slow disk hit never
//    serializes hits on other keys); `put()` serializes and writes the
//    payload to a temp file unlocked, then renames it into place under the
//    lock. Because files only appear/disappear at their deterministic
//    per-key path while the lock is held, a generation snapshot fully
//    identifies which file a failed read saw — the corrupt-drop path can
//    never delete a concurrently republished healthy file. The service's
//    write-back still runs on a background thread so cold builds never
//    wait on serialization.
//  * Traffic and health counters are registry Counters (relaxed atomics)
//    incremented where the event happens, so they are exact at any time.
//  * Entries are keyed by the same `ProductKey` as the RAM tier. The
//    config-hash and a format version live in every file header, so a config,
//    model or format change makes old entries unreadable-as-stale: they are
//    treated as misses and deleted (self-invalidation), never served.
//  * Crash safety: files are written to a temp name and atomically renamed
//    (h5::write_file_atomic); a partially written, truncated, corrupt or
//    wrong-version file is deleted on probe and reported as a miss.
//  * The directory is byte-budgeted: an LRU manifest (rebuilt from file
//    headers at startup, ordered by mtime) evicts least-recently-used files
//    until the directory fits, with one exception: a beam's last resident
//    product (per granule, beam and backend) is the seed every later miss on
//    that beam resumes from, so at the LRU end it is moved back to the MRU
//    end once before it can go. A read clears that mark; an unread seed is
//    evicted on its second pass (counted in `seed_evictions`).
//  * Writes are admitted by frequency (TinyLFU): client lookups (`get`) are
//    counted in a FrequencySketch, and a `put` of a new key whose beam
//    already has a resident product is skipped — before serialization, so
//    with no file IO — when a file it would displace is read more often
//    (counted in `admission_rejections`). A beam's first product is always
//    written: it is the beam's seed. The sketch is not persisted, so after a
//    restart every estimate is 0 and eviction is plain LRU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "serve/product_cache.hpp"
#include "util/backoff.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::serve {

struct DiskCacheConfig {
  std::string dir;                         ///< cache directory (created if absent)
  std::size_t byte_budget = 1ull << 30;    ///< total on-disk bytes before LRU eviction
  /// Registry of the cache's `is2_cache_*{tier="disk"}` instruments (must
  /// outlive the cache); nullptr = the cache owns a private registry
  /// (stats() works the same either way).
  obs::Registry* registry = nullptr;
  /// A failed file read (IO error, torn read under concurrent eviction,
  /// injected `disk.read` fault) is retried this many times with backoff
  /// before the delete-as-corrupt path runs — a genuinely corrupt file fails
  /// every attempt and is still dropped, but a transient fault costs one
  /// short sleep instead of a rebuilt product.
  std::size_t read_retries = 1;
  util::BackoffConfig read_backoff{0.2, 5.0};
};

/// Value snapshot of one disk tier: the registry counters plus the
/// manifest's resident size at the time of the call.
struct DiskCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;            ///< successful put() publishes
  std::uint64_t evictions = 0;         ///< files deleted by the byte budget
  /// Evictions that removed a beam's last resident product: the beam's next
  /// miss rebuilds from shards. A rising count means the budget holds less
  /// than one product per live beam.
  std::uint64_t seed_evictions = 0;
  /// put() calls skipped because a file the write would displace is read
  /// more often than the new key: writes that never happened.
  std::uint64_t admission_rejections = 0;
  std::uint64_t corrupt_dropped = 0;   ///< stale/corrupt/partial files deleted
  std::uint64_t disk_read_retries = 0; ///< failed reads retried before the drop path
  std::size_t bytes = 0;               ///< resident on-disk bytes
  std::size_t entries = 0;             ///< resident files

  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class DiskCache {
 public:
  /// Bump when the product payload or key-block layout changes: every
  /// existing cache file self-invalidates on the next probe. v2 extended the
  /// key block with the product kind and classifier backend (the
  /// is2::pipeline stage-graph redesign), so v1 files — which cannot say
  /// which kind/backend they hold — are rejected, never served.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Creates the directory if needed, deletes leftover temp files, rebuilds
  /// the LRU manifest from the surviving file headers (oldest mtime = first
  /// eviction candidate) and evicts down to the byte budget.
  explicit DiskCache(DiskCacheConfig config);

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// Probe + deserialize; records the lookup in the frequency sketch, hit
  /// or miss, and on a hit refreshes the LRU position and clears the
  /// entry's seed mark (see the eviction rule above). Any unreadable file
  /// (truncated, bad CRC, wrong version, key mismatch) is deleted and
  /// reported as a miss — a corrupt entry is never served. The file read
  /// and deserialization run outside the manifest lock (snapshot-then-read),
  /// so concurrent get() calls on different keys proceed in parallel even
  /// when one of them hits a slow disk.
  std::shared_ptr<const GranuleProduct> get(const ProductKey& key);

  /// get() minus the hit/miss counters and the frequency sketch (corrupt
  /// drops are still counted — they report file health, not traffic). For speculative probes that are
  /// not client requests (the service's shallower-kind resume probe), so
  /// DiskCacheStats keeps reporting the client-visible hit rate.
  std::shared_ptr<const GranuleProduct> peek(const ProductKey& key);

  /// Test-only: invoked between the unlocked file read and re-acquiring the
  /// manifest lock in get(). Lets tests hold one reader mid-flight and
  /// prove other keys' hits are not serialized behind it. Not thread-safe
  /// against concurrent get(); install before traffic starts.
  void set_read_hook_for_tests(std::function<void(const ProductKey&)> hook) {
    read_hook_ = std::move(hook);
  }

  /// Admission check, then serialize + atomically publish, then evict LRU
  /// files over budget (a beam's last unmarked product is spared once; see
  /// above). Returns false, having done no IO, when the write is rejected:
  /// the key is new, its beam has a resident product, and a file the write
  /// would displace is read more often. Blocks for the file write; errors
  /// (e.g. disk full) throw.
  bool put(const ProductKey& key, const GranuleProduct& product);

  /// Manifest-only probe: no file IO, no LRU refresh, no counters, no sketch.
  bool contains(const ProductKey& key) const;

  /// Counters plus resident bytes/entries; also refreshes the
  /// `is2_cache_bytes` / `is2_cache_entries` gauges.
  DiskCacheStats stats() const;

  const std::string& dir() const { return config_.dir; }
  std::size_t byte_budget() const { return config_.byte_budget; }

  // Format layer, exposed for tests and offline tooling ----------------------
  //
  // File layout (little-endian, h5::ByteWriter/ByteReader):
  //   magic "IS2P" | u32 format_version | u64 config_hash | u8 beam
  //   | u8 product_kind | u8 backend | str granule_id
  //   | u64 payload_bytes | payload | u32 crc32(payload)

  /// Encode one product under its cache key.
  static std::vector<std::uint8_t> serialize(const ProductKey& key,
                                             const GranuleProduct& product);

  /// Size in bytes of serialize(key, product), computed without encoding.
  static std::size_t encoded_size(const ProductKey& key, const GranuleProduct& product);

  /// Decode; throws h5::H5Error on any malformation, version or CRC mismatch,
  /// or when the embedded key differs from `expect` (filename collision).
  static GranuleProduct deserialize(std::span<const std::uint8_t> bytes,
                                    const ProductKey& expect);

  /// Deterministic per-key file name within the cache directory.
  static std::string filename_for(const ProductKey& key);

 private:
  struct Entry {
    ProductKey key;
    std::string path;       ///< absolute path of the cache file
    std::size_t bytes = 0;  ///< on-disk size
    /// Monotonic publish generation. filename_for(key) is deterministic, so
    /// a path comparison cannot tell "the file I failed to read" from "a
    /// healthy file a concurrent put() republished at the same path" — the
    /// generation can, and the corrupt-drop path in get() checks it.
    std::uint64_t gen = 0;
    /// Moved back to the MRU end once as its beam's last resident product;
    /// cleared by a read.
    bool spared = false;
  };

  /// Whether the eviction loop would spare `e` rather than evict it: a
  /// beam's last resident product that has not been spared yet.
  bool spares_locked(const Entry& e) const REQUIRES(mutex_);
  /// The admission check of put() for a new file of `bytes` bytes.
  bool admits_locked(const ProductKey& key, std::size_t bytes) const REQUIRES(mutex_);
  void evict_over_budget_locked() REQUIRES(mutex_);
  void drop_entry_locked(std::list<Entry>::iterator it, bool corrupt) REQUIRES(mutex_);
  std::shared_ptr<const GranuleProduct> get_impl(const ProductKey& key, bool count_stats);

  DiskCacheConfig config_;
  std::function<void(const ProductKey&)> read_hook_;  ///< tests only
  mutable util::Mutex mutex_;
  std::list<Entry> lru_ GUARDED_BY(mutex_);  ///< front = most recently used
  std::unordered_map<ProductKey, std::list<Entry>::iterator, ProductKeyHash> index_
      GUARDED_BY(mutex_);
  /// Resident entries per (granule, beam, backend), keyed by a ProductKey
  /// whose config_hash and kind stay at their defaults; absent = none.
  std::unordered_map<ProductKey, std::size_t, ProductKeyHash> beam_entries_ GUARDED_BY(mutex_);
  std::size_t bytes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t next_gen_ GUARDED_BY(mutex_) = 1;  ///< publish generation source
  FrequencySketch sketch_ GUARDED_BY(mutex_);      ///< get() lookups

  /// Instruments, set once at construction (stable for the registry's
  /// lifetime). Owned registry only when DiskCacheConfig::registry was null.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Counter* hits_total_ = nullptr;
  obs::Counter* misses_total_ = nullptr;
  obs::Counter* writes_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* seed_evictions_total_ = nullptr;
  obs::Counter* rejections_total_ = nullptr;
  obs::Counter* corrupt_total_ = nullptr;
  obs::Counter* read_retries_total_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace is2::serve
