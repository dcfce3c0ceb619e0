#include "serve/product_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace is2::serve {

namespace {

/// Each sketch row mixes the key hash with its own constant, so keys that
/// collide in one row rarely collide in all of them.
constexpr std::array<std::uint64_t, FrequencySketch::kRows> kRowSeeds = {
    0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
    0xD6E8FEB86659FD93ULL};

}  // namespace

std::size_t FrequencySketch::slot(std::size_t key_hash, std::size_t row) {
  return static_cast<std::size_t>(util::hash64(key_hash ^ kRowSeeds[row]) % kWidth);
}

void FrequencySketch::record(std::size_t key_hash) {
  for (std::size_t r = 0; r < kRows; ++r) ++counters_[r][slot(key_hash, r)];
  if (++records_ < kAgingPeriod) return;
  for (auto& row : counters_)
    for (std::uint32_t& c : row) c /= 2;
  records_ /= 2;
}

std::uint32_t FrequencySketch::estimate(std::size_t key_hash) const {
  std::uint32_t out = counters_[0][slot(key_hash, 0)];
  for (std::size_t r = 1; r < kRows; ++r) out = std::min(out, counters_[r][slot(key_hash, r)]);
  return out;
}

std::size_t ProductKeyHash::operator()(const ProductKey& key) const {
  std::uint64_t h = std::hash<std::string>{}(key.granule_id);
  h = util::hash64(h ^ (static_cast<std::uint64_t>(key.beam) + 0x9E3779B97F4A7C15ULL));
  h = util::hash64(h ^ key.config_hash);
  h = util::hash64(h ^ (static_cast<std::uint64_t>(key.kind) |
                        static_cast<std::uint64_t>(key.backend) << 8));
  return static_cast<std::size_t>(h);
}

std::size_t GranuleProduct::approx_bytes() const {
  std::size_t bytes = sizeof(GranuleProduct);
  bytes += granule_id.capacity();
  bytes += segments.capacity() * sizeof(resample::Segment);
  bytes += classes.capacity() * sizeof(atl03::SurfaceClass);
  bytes += sea_surface.points().capacity() * sizeof(seasurface::SeaSurfacePoint);
  bytes += freeboard.points.capacity() * sizeof(freeboard::FreeboardPoint);
  return bytes;
}

ProductCache::ProductCache(std::size_t byte_budget, std::size_t num_shards,
                           obs::Registry* registry)
    : byte_budget_(byte_budget) {
  if (num_shards == 0) num_shards = 1;
  shard_budget_ = byte_budget_ / num_shards;
  if (shard_budget_ == 0) shard_budget_ = 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (!registry) owned_registry_ = std::make_unique<obs::Registry>();
  obs::Registry& reg = registry ? *registry : *owned_registry_;
  const obs::Labels tier{{"tier", "ram"}};
  hits_total_ = &reg.counter("is2_cache_hits_total", tier, "client lookups served");
  misses_total_ = &reg.counter("is2_cache_misses_total", tier, "client lookups missed");
  evictions_total_ =
      &reg.counter("is2_cache_evictions_total", tier, "entries evicted by byte budget");
  insertions_total_ = &reg.counter("is2_cache_insertions_total", tier, "entries inserted");
  rejections_total_ =
      &reg.counter("is2_cache_admission_rejections_total", tier,
                   "candidates evicted because the entry they would displace is read more");
  bytes_gauge_ = &reg.gauge("is2_cache_bytes", tier, "resident product bytes");
  entries_gauge_ = &reg.gauge("is2_cache_entries", tier, "resident product count");
}

ProductCache::Shard& ProductCache::shard_for(std::size_t key_hash) const {
  return *shards_[key_hash % shards_.size()];
}

std::shared_ptr<const GranuleProduct> ProductCache::get(const ProductKey& key) {
  const std::size_t hash = ProductKeyHash{}(key);
  Shard& shard = shard_for(hash);
  util::MutexLock lock(shard.mutex);
  shard.sketch.record(hash);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_total_->inc();
    return nullptr;
  }
  hits_total_->inc();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  return it->second->product;
}

std::shared_ptr<const GranuleProduct> ProductCache::peek(const ProductKey& key) {
  Shard& shard = shard_for(ProductKeyHash{}(key));
  util::MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;  // not a client miss: uncounted
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  return it->second->product;
}

void ProductCache::put(const ProductKey& key, std::shared_ptr<const GranuleProduct> product) {
  if (!product) throw std::invalid_argument("ProductCache::put: null product");
  const std::size_t bytes = product->approx_bytes();
  const std::size_t hash = ProductKeyHash{}(key);
  Shard& shard = shard_for(hash);
  util::MutexLock lock(shard.mutex);

  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    if (shard.window == it->second) shard.window = shard.lru.end();
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  // The new entry takes the window; the entry it pushes out of the window is
  // the candidate (lru.end() when none), which must earn its place against
  // each victim below.
  auto candidate = shard.window;
  shard.lru.push_front(Entry{key, std::move(product), bytes, hash});
  shard.index[key] = shard.lru.begin();
  shard.window = shard.lru.begin();
  shard.bytes += bytes;
  insertions_total_->inc();

  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    // The victim is the least recently used entry other than the window
    // (the front) and the candidate. The candidate goes instead when it is
    // read less often, or when nothing else is left.
    auto victim = std::prev(shard.lru.end());
    if (victim == candidate) --victim;
    if (victim == shard.lru.begin()) {
      victim = candidate;
    } else if (candidate != shard.lru.end() &&
               shard.sketch.estimate(candidate->hash) < shard.sketch.estimate(victim->hash)) {
      victim = candidate;
      rejections_total_->inc();
    }
    if (victim == candidate) candidate = shard.lru.end();
    shard.bytes -= victim->bytes;
    shard.index.erase(victim->key);
    shard.lru.erase(victim);
    evictions_total_->inc();
  }
}

bool ProductCache::contains(const ProductKey& key) const {
  Shard& shard = shard_for(ProductKeyHash{}(key));
  util::MutexLock lock(shard.mutex);
  return shard.index.count(key) != 0;
}

CacheStats ProductCache::stats() const {
  CacheStats out;
  out.hits = hits_total_->value();
  out.misses = misses_total_->value();
  out.evictions = evictions_total_->value();
  out.insertions = insertions_total_->value();
  out.admission_rejections = rejections_total_->value();
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    out.bytes += shard->bytes;
    out.entries += shard->lru.size();
  }
  bytes_gauge_->set(static_cast<double>(out.bytes));
  entries_gauge_->set(static_cast<double>(out.entries));
  return out;
}

}  // namespace is2::serve
