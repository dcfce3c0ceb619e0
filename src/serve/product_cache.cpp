#include "serve/product_cache.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace is2::serve {

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
  bytes_gauge_ = &reg.gauge("is2_cache_bytes", tier, "resident product bytes");
  entries_gauge_ = &reg.gauge("is2_cache_entries", tier, "resident product count");
}

ProductCache::Shard& ProductCache::shard_for(const ProductKey& key) const {
  return *shards_[ProductKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const GranuleProduct> ProductCache::get(const ProductKey& key) {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
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
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;  // not a client miss: uncounted
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  return it->second->product;
}

void ProductCache::put(const ProductKey& key, std::shared_ptr<const GranuleProduct> product) {
  if (!product) throw std::invalid_argument("ProductCache::put: null product");
  const std::size_t bytes = product->approx_bytes();
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);

  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{key, std::move(product), bytes});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  insertions_total_->inc();

  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_total_->inc();
  }
}

bool ProductCache::contains(const ProductKey& key) const {
  Shard& shard = shard_for(key);
  util::MutexLock lock(shard.mutex);
  return shard.index.count(key) != 0;
}

CacheStats ProductCache::stats() const {
  CacheStats out;
  out.hits = hits_total_->value();
  out.misses = misses_total_->value();
  out.evictions = evictions_total_->value();
  out.insertions = insertions_total_->value();
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    out.bytes += shard->bytes;
    out.entries += shard->lru.size();
  }
  bytes_gauge_->set(static_cast<double>(out.bytes));
  entries_gauge_->set(static_cast<double>(out.entries));
  return out;
}

void ProductCache::clear() {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace is2::serve
