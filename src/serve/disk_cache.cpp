#include "serve/disk_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "h5lite/h5file.hpp"
#include "util/fault.hpp"

namespace is2::serve {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'I', 'S', '2', 'P'};
///< magic..backend, before the granule id
constexpr std::size_t kIdentityPrefixBytes = 4 + 4 + 8 + 1 + 1 + 1;

/// Fixed-size header fields shared by serialize/deserialize/manifest-scan.
struct Identity {
  std::uint32_t version = 0;
  ProductKey key;
};

/// Parse the identity header off the front of a buffer. Throws h5::H5Error
/// on truncation or bad magic; version checking is the caller's decision
/// (the manifest scan wants to *detect* stale versions, not choke on them).
Identity read_identity(h5::ByteReader& r) {
  char magic[4];
  r.bytes(reinterpret_cast<std::uint8_t*>(magic), 4);
  if (std::memcmp(magic, kMagic, 4) != 0) throw h5::H5Error("disk_cache: bad magic");
  Identity id;
  id.version = r.raw<std::uint32_t>();
  id.key.config_hash = r.raw<std::uint64_t>();
  id.key.beam = static_cast<atl03::BeamId>(r.raw<std::uint8_t>());
  id.key.kind = static_cast<pipeline::ProductKind>(r.raw<std::uint8_t>());
  id.key.backend = static_cast<pipeline::Backend>(r.raw<std::uint8_t>());
  id.key.granule_id = r.str();
  return id;
}

// Encoded bytes per element of the payload's four arrays; the encoder sizes
// its buffer and the decoder checks each array's count with these.
constexpr std::size_t kSegmentBytes = 8 * 8 + 4 + 2 * 8 + 1;
constexpr std::size_t kClassBytes = 1;
constexpr std::size_t kSurfacePointBytes = 3 * 8 + 2 * 4 + 1;
constexpr std::size_t kFreeboardPointBytes = 4 * 8 + 2 * 1;
static_assert(sizeof(atl03::SurfaceClass) == kClassBytes);

// Each array of the payload is encoded and decoded in one block of
// count × element bytes, bounds-checked once; the fields go in and out
// through a cursor into that block.
template <typename T>
void store(std::uint8_t*& q, const T& v) {
  std::memcpy(q, &v, sizeof(T));
  q += sizeof(T);
}

template <typename T>
T load(const std::uint8_t*& q) {
  T v;
  std::memcpy(&v, q, sizeof(T));
  q += sizeof(T);
  return v;
}

void write_segment(std::uint8_t*& q, const resample::Segment& s) {
  store(q, s.s); store(q, s.t); store(q, s.x); store(q, s.y);
  store(q, s.h_mean); store(q, s.h_median); store(q, s.h_std); store(q, s.h_min);
  store(q, s.n_photons); store(q, s.photon_rate); store(q, s.bckgrd_rate);
  store(q, static_cast<std::uint8_t>(s.truth));
}

resample::Segment read_segment(const std::uint8_t*& q) {
  resample::Segment s;
  s.s = load<double>(q); s.t = load<double>(q); s.x = load<double>(q); s.y = load<double>(q);
  s.h_mean = load<double>(q); s.h_median = load<double>(q);
  s.h_std = load<double>(q); s.h_min = load<double>(q);
  s.n_photons = load<std::uint32_t>(q);
  s.photon_rate = load<double>(q); s.bckgrd_rate = load<double>(q);
  s.truth = static_cast<atl03::SurfaceClass>(load<std::uint8_t>(q));
  return s;
}

/// One payload array: its u64 element count, checked against the bytes left
/// (a corrupt count raises H5Error instead of attempting a multi-GiB
/// resize), and its count × elem_bytes encoded elements, bounds-checked
/// once as a whole.
struct Array {
  std::size_t count;
  const std::uint8_t* bytes;
};

Array read_array(h5::ByteReader& r, std::size_t elem_bytes) {
  const auto n = r.raw<std::uint64_t>();
  if (n > r.remaining() / elem_bytes) throw h5::H5Error("disk_cache: corrupt element count");
  const auto count = static_cast<std::size_t>(n);
  return {count, r.take(count * elem_bytes)};
}

/// Bytes before the payload: identity prefix, granule id, payload length.
std::size_t header_size(const ProductKey& key) {
  return kIdentityPrefixBytes + 4 + key.granule_id.size() + 8;
}

/// Bytes of the payload: each array's u64 count and its elements.
std::size_t payload_size(const GranuleProduct& product) {
  return 4 * 8 + product.segments.size() * kSegmentBytes + product.classes.size() * kClassBytes +
         product.sea_surface.points().size() * kSurfacePointBytes +
         product.freeboard.points.size() * kFreeboardPointBytes;
}

/// The key of an entry's beam group: granule, beam and backend, with
/// config_hash and kind at their defaults.
ProductKey beam_of(const ProductKey& key) {
  ProductKey beam;
  beam.granule_id = key.granule_id;
  beam.beam = key.beam;
  beam.backend = key.backend;
  return beam;
}

}  // namespace

std::string DiskCache::filename_for(const ProductKey& key) {
  std::string id = key.granule_id;
  for (char& c : id)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') c = '-';
  char buf[96];
  std::snprintf(buf, sizeof buf, "_%s_%s_%s_%016llx_%016llx.is2p", atl03::beam_name(key.beam),
                pipeline::product_kind_name(key.kind), pipeline::backend_name(key.backend),
                static_cast<unsigned long long>(key.config_hash),
                static_cast<unsigned long long>(ProductKeyHash{}(key)));
  return id + buf;
}

std::size_t DiskCache::encoded_size(const ProductKey& key, const GranuleProduct& product) {
  return header_size(key) + payload_size(product) + 4;
}

std::vector<std::uint8_t> DiskCache::serialize(const ProductKey& key,
                                               const GranuleProduct& product) {
  const auto& surface = product.sea_surface.points();
  const auto& freeboard = product.freeboard.points;

  h5::ByteWriter out(encoded_size(key, product));
  out.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), 4);
  out.raw(kFormatVersion);
  out.raw(key.config_hash);
  out.raw(static_cast<std::uint8_t>(key.beam));
  out.raw(static_cast<std::uint8_t>(key.kind));
  out.raw(static_cast<std::uint8_t>(key.backend));
  out.str(key.granule_id);
  out.raw(static_cast<std::uint64_t>(payload_size(product)));

  out.raw(static_cast<std::uint64_t>(product.segments.size()));
  std::uint8_t* q = out.append(product.segments.size() * kSegmentBytes);
  for (const auto& s : product.segments) write_segment(q, s);
  out.raw(static_cast<std::uint64_t>(product.classes.size()));
  out.bytes(reinterpret_cast<const std::uint8_t*>(product.classes.data()),
            product.classes.size() * kClassBytes);
  out.raw(static_cast<std::uint64_t>(surface.size()));
  q = out.append(surface.size() * kSurfacePointBytes);
  for (const auto& p : surface) {
    store(q, p.s); store(q, p.h_ref); store(q, p.sigma);
    store(q, p.n_leads); store(q, p.n_water_segments);
    store(q, static_cast<std::uint8_t>(p.interpolated));
  }
  out.raw(static_cast<std::uint64_t>(freeboard.size()));
  q = out.append(freeboard.size() * kFreeboardPointBytes);
  for (const auto& p : freeboard) {
    store(q, p.s); store(q, p.x); store(q, p.y); store(q, p.freeboard);
    store(q, static_cast<std::uint8_t>(p.cls));
    store(q, static_cast<std::uint8_t>(p.truth));
  }
  out.raw(h5::crc32(out.written().subspan(header_size(key))));
  return out.release();
}

GranuleProduct DiskCache::deserialize(std::span<const std::uint8_t> bytes,
                                      const ProductKey& expect) {
  h5::ByteReader r(bytes);
  const Identity id = read_identity(r);
  if (id.version != kFormatVersion) throw h5::H5Error("disk_cache: stale format version");
  if (!(id.key == expect)) throw h5::H5Error("disk_cache: key mismatch");
  const auto payload = r.raw<std::uint64_t>();
  if (payload > r.remaining() || r.remaining() - payload < 4)
    throw h5::H5Error("disk_cache: truncated payload");
  const auto payload_span = bytes.subspan(r.pos(), static_cast<std::size_t>(payload));
  h5::ByteReader crc_r(bytes.subspan(r.pos() + static_cast<std::size_t>(payload)));
  if (crc_r.raw<std::uint32_t>() != h5::crc32(payload_span))
    throw h5::H5Error("disk_cache: checksum mismatch (corrupt file)");

  // Every array's count is checked against the bytes left before anything
  // is allocated, and the arrays must fill the payload exactly.
  h5::ByteReader body(payload_span);
  const Array segments = read_array(body, kSegmentBytes);
  const Array classes = read_array(body, kClassBytes);
  const Array surface = read_array(body, kSurfacePointBytes);
  const Array freeboard = read_array(body, kFreeboardPointBytes);
  if (body.remaining() != 0) throw h5::H5Error("disk_cache: trailing bytes in payload");

  GranuleProduct product;
  product.granule_id = expect.granule_id;
  product.beam = expect.beam;
  product.kind = expect.kind;
  product.segments.reserve(segments.count);
  const std::uint8_t* q = segments.bytes;
  for (std::size_t i = 0; i < segments.count; ++i) product.segments.push_back(read_segment(q));
  product.classes.resize(classes.count);
  if (classes.count != 0)
    std::memcpy(product.classes.data(), classes.bytes, classes.count * kClassBytes);
  std::vector<seasurface::SeaSurfacePoint> surface_points(surface.count);
  q = surface.bytes;
  for (auto& p : surface_points) {
    p.s = load<double>(q); p.h_ref = load<double>(q); p.sigma = load<double>(q);
    p.n_leads = load<std::uint32_t>(q);
    p.n_water_segments = load<std::uint32_t>(q);
    p.interpolated = load<std::uint8_t>(q) != 0;
  }
  product.sea_surface = seasurface::SeaSurfaceProfile(std::move(surface_points));
  product.freeboard.points.resize(freeboard.count);
  q = freeboard.bytes;
  for (auto& p : product.freeboard.points) {
    p.s = load<double>(q); p.x = load<double>(q); p.y = load<double>(q);
    p.freeboard = load<double>(q);
    p.cls = static_cast<atl03::SurfaceClass>(load<std::uint8_t>(q));
    p.truth = static_cast<atl03::SurfaceClass>(load<std::uint8_t>(q));
  }
  return product;
}

DiskCache::DiskCache(DiskCacheConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) throw std::invalid_argument("DiskCache: empty directory");
  if (!config_.registry) owned_registry_ = std::make_unique<obs::Registry>();
  obs::Registry& reg = config_.registry ? *config_.registry : *owned_registry_;
  const obs::Labels tier{{"tier", "disk"}};
  hits_total_ = &reg.counter("is2_cache_hits_total", tier, "client lookups served");
  misses_total_ = &reg.counter("is2_cache_misses_total", tier, "client lookups missed");
  writes_total_ = &reg.counter("is2_cache_writes_total", tier, "successful put publishes");
  evictions_total_ =
      &reg.counter("is2_cache_evictions_total", tier, "files deleted by byte budget");
  seed_evictions_total_ = &reg.counter("is2_cache_seed_evictions_total", tier,
                                       "evictions that removed a beam's last resident product");
  rejections_total_ =
      &reg.counter("is2_cache_admission_rejections_total", tier,
                   "writes skipped because a file they would displace is read more");
  corrupt_total_ = &reg.counter("is2_cache_corrupt_dropped_total", tier,
                                "stale/corrupt/partial files deleted");
  read_retries_total_ = &reg.counter("is2_cache_read_retries_total", tier,
                                     "failed reads retried before the corrupt-drop path");
  bytes_gauge_ = &reg.gauge("is2_cache_bytes", tier, "resident on-disk bytes");
  entries_gauge_ = &reg.gauge("is2_cache_entries", tier, "resident file count");
  fs::create_directories(config_.dir);

  // The object is not shared yet, but the manifest rebuild below touches
  // every mutex_-guarded field and ends in evict_over_budget_locked()
  // (REQUIRES(mutex_)) — holding the uncontended lock keeps the ctor inside
  // the same annotated discipline as the rest of the class.
  util::MutexLock lock(mutex_);

  // Rebuild the manifest from what survived on disk. Only the identity
  // prefix of each file is read here (not the payload); anything that fails
  // even that — leftover temp files from a crashed writer, truncated or
  // foreign files, stale format versions — is deleted now rather than probed
  // forever.
  struct Found {
    fs::file_time_type mtime;
    Entry entry;
  };
  std::vector<Found> found;
  for (const auto& de : fs::directory_iterator(config_.dir)) {
    if (!de.is_regular_file()) continue;
    const std::string path = de.path().string();
    if (de.path().extension() != ".is2p") {
      if (path.find(".is2p.tmp.") != std::string::npos) {  // crashed mid-write
        std::error_code ec;
        fs::remove(de.path(), ec);
        corrupt_total_->inc();
      }
      continue;
    }
    try {
      const auto head_bytes = static_cast<std::size_t>(
          std::min<std::uintmax_t>(de.file_size(), kIdentityPrefixBytes + 4 + 4096));
      std::vector<std::uint8_t> head(head_bytes);
      std::ifstream in(path, std::ios::binary);
      if (!in) throw h5::H5Error("disk_cache: cannot open: " + path);
      in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
      if (!in) throw h5::H5Error("disk_cache: cannot read: " + path);
      h5::ByteReader r(head);
      const Identity id = read_identity(r);
      if (id.version != kFormatVersion) throw h5::H5Error("disk_cache: stale format version");
      found.push_back(
          {de.last_write_time(),
           Entry{id.key, path, static_cast<std::size_t>(de.file_size())}});
    } catch (const std::exception&) {
      std::error_code ec;
      fs::remove(de.path(), ec);
      corrupt_total_->inc();
    }
  }
  // Oldest files become the LRU end (first eviction candidates).
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.mtime > b.mtime; });
  for (auto& f : found) {
    if (index_.count(f.entry.key)) continue;  // duplicate key: keep the newest
    bytes_ += f.entry.bytes;
    ++beam_entries_[beam_of(f.entry.key)];
    f.entry.gen = next_gen_++;
    lru_.push_back(std::move(f.entry));
    index_[lru_.back().key] = std::prev(lru_.end());
  }
  evict_over_budget_locked();
}

void DiskCache::drop_entry_locked(std::list<Entry>::iterator it, bool corrupt) {
  std::error_code ec;
  fs::remove(it->path, ec);
  bytes_ -= it->bytes;
  const auto group = beam_entries_.find(beam_of(it->key));
  const bool last = --group->second == 0;
  if (last) beam_entries_.erase(group);
  index_.erase(it->key);
  lru_.erase(it);
  if (corrupt) {
    corrupt_total_->inc();
  } else {
    evictions_total_->inc();
    if (last) seed_evictions_total_->inc();
  }
}

bool DiskCache::spares_locked(const Entry& e) const {
  return !e.spared && beam_entries_.at(beam_of(e.key)) == 1;
}

bool DiskCache::admits_locked(const ProductKey& key, std::size_t bytes) const {
  const ProductKey beam = beam_of(key);
  if (index_.count(key) != 0 || beam_entries_.count(beam) == 0 ||
      bytes_ + bytes <= config_.byte_budget)
    return true;
  // The files the write would displace: the LRU end, minus the seeds the
  // eviction loop would spare (the key's own beam has no seed once it is
  // written).
  const std::uint32_t freq = sketch_.estimate(ProductKeyHash{}(key));
  std::size_t freed = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend() && bytes_ + bytes > config_.byte_budget + freed;
       ++it) {
    if (spares_locked(*it) && !(beam_of(it->key) == beam)) continue;
    if (sketch_.estimate(ProductKeyHash{}(it->key)) > freq) return false;
    freed += it->bytes;
  }
  return true;
}

void DiskCache::evict_over_budget_locked() {
  // Each step evicts an entry or marks an unmarked one, so the loop ends.
  // An entry starts unmarked and only a read clears its mark, so the marks
  // cost amortized O(1) per put or read.
  while (bytes_ > config_.byte_budget && lru_.size() > 1) {
    const auto victim = std::prev(lru_.end());
    if (spares_locked(*victim)) {
      victim->spared = true;  // the beam's seed: one more pass through the LRU
      lru_.splice(lru_.begin(), lru_, victim);
    } else {
      drop_entry_locked(victim, /*corrupt=*/false);
    }
  }
}

std::shared_ptr<const GranuleProduct> DiskCache::get(const ProductKey& key) {
  return get_impl(key, /*count_stats=*/true);
}

std::shared_ptr<const GranuleProduct> DiskCache::peek(const ProductKey& key) {
  return get_impl(key, /*count_stats=*/false);
}

std::shared_ptr<const GranuleProduct> DiskCache::get_impl(const ProductKey& key,
                                                          bool count_stats) {
  // Snapshot-then-read: the manifest lock covers only the index probe and
  // the post-read bookkeeping — the file read and deserialization (the
  // actual milliseconds) run unlocked, so one slow disk hit no longer
  // serializes hits on other keys. The snapshot is the entry's path; a
  // concurrent put() for the same key atomically replaces the file
  // (rename-on-publish), so the unlocked read sees either the old or the
  // new complete payload — both deserialize to a valid product for this
  // key. A concurrent eviction can delete the file mid-read; that read
  // fails and is recorded as a miss without touching any newer entry.
  const std::size_t hash = ProductKeyHash{}(key);
  std::string path;
  std::uint64_t gen = 0;
  {
    util::MutexLock lock(mutex_);
    if (count_stats) sketch_.record(hash);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      if (count_stats) misses_total_->inc();
      return nullptr;
    }
    path = it->second->path;
    gen = it->second->gen;
  }

  std::shared_ptr<GranuleProduct> product;
  util::Backoff backoff(config_.read_backoff, hash ^ gen);
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      util::fault::inject("disk.read");
      const auto bytes = h5::read_file_bytes(path);
      if (read_hook_) read_hook_(key);  // test-only concurrency probe
      product = std::make_shared<GranuleProduct>(deserialize(bytes, key));
      break;
    } catch (const std::exception&) {
      if (attempt < config_.read_retries) {
        // Maybe transient (flaky IO, injected fault, eviction race): retry
        // after a backoff against a *fresh* snapshot — the entry may have
        // been republished (newer gen, read that) or evicted (miss).
        {
          util::MutexLock lock(mutex_);
          const auto it = index_.find(key);
          if (it == index_.end()) {
            if (count_stats) misses_total_->inc();
            return nullptr;
          }
          path = it->second->path;
          gen = it->second->gen;
          read_retries_total_->inc();
        }
        backoff.sleep();
        continue;
      }
      // Out of retries: truncated / corrupt / stale-version / mismatched
      // file — never served.
      util::MutexLock lock(mutex_);
      const auto it = index_.find(key);
      // Drop (and delete) only if the entry is still the publish generation
      // we failed on. This is airtight because a file can only appear at the
      // (deterministic) path under the manifest lock: put() renames its temp
      // file into place *while holding the lock* (see put), and eviction
      // deletes under it too — so gen == our snapshot implies the file at
      // `path` is still the one we failed to read, and a republished healthy
      // file always carries a newer generation and is never deleted here.
      if (it != index_.end() && it->second->gen == gen)
        drop_entry_locked(it->second, /*corrupt=*/true);
      if (count_stats) misses_total_->inc();
      return nullptr;
    }
  }

  util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {  // refresh; a read seed earns another pass
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->spared = false;
  }
  if (count_stats) hits_total_->inc();
  return product;
}

bool DiskCache::put(const ProductKey& key, const GranuleProduct& product) {
  const std::size_t size = encoded_size(key, product);
  {
    util::MutexLock lock(mutex_);
    if (!admits_locked(key, size)) {
      rejections_total_->inc();
      return false;
    }
  }
  util::fault::inject("disk.write");
  const std::vector<std::uint8_t> bytes = serialize(key, product);
  const std::string path = (fs::path(config_.dir) / filename_for(key)).string();

  // Serialization and the payload write happen outside the manifest lock
  // (they are the milliseconds); only the rename-into-place happens under
  // it. That ordering is load-bearing for get()'s corrupt-drop path: no
  // file can appear at the deterministic per-key path without holding the
  // lock, so a generation snapshot fully identifies which file a failed
  // read saw. Same-directory temp name (rename across filesystems is not
  // atomic); pid + counter keeps concurrent writers of the same target
  // from clobbering each other's temp file, and the startup scan deletes
  // any `.is2p.tmp.*` leftovers from a crashed writer.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." + std::to_string(seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw h5::H5Error("disk_cache: cannot open for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code rm;
      fs::remove(tmp, rm);
      throw h5::H5Error("disk_cache: write failed: " + tmp);
    }
  }

  util::MutexLock lock(mutex_);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    fs::remove(tmp, rm);
    throw h5::H5Error("disk_cache: rename failed: " + tmp + " -> " + path + ": " +
                      ec.message());
  }
  auto it = index_.find(key);
  if (it != index_.end()) {  // replaced in place by the rename
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  } else {
    ++beam_entries_[beam_of(key)];
  }
  lru_.push_front(Entry{key, path, bytes.size(), next_gen_++});
  index_[key] = lru_.begin();
  bytes_ += bytes.size();
  writes_total_->inc();
  evict_over_budget_locked();
  return true;
}

bool DiskCache::contains(const ProductKey& key) const {
  util::MutexLock lock(mutex_);
  return index_.count(key) != 0;
}

DiskCacheStats DiskCache::stats() const {
  DiskCacheStats out;
  out.hits = hits_total_->value();
  out.misses = misses_total_->value();
  out.writes = writes_total_->value();
  out.evictions = evictions_total_->value();
  out.seed_evictions = seed_evictions_total_->value();
  out.admission_rejections = rejections_total_->value();
  out.corrupt_dropped = corrupt_total_->value();
  out.disk_read_retries = read_retries_total_->value();
  {
    util::MutexLock lock(mutex_);
    out.bytes = bytes_;
    out.entries = lru_.size();
  }
  bytes_gauge_->set(static_cast<double>(out.bytes));
  entries_gauge_->set(static_cast<double>(out.entries));
  return out;
}

}  // namespace is2::serve
