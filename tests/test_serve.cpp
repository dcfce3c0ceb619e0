// Serving subsystem tests: the frequency sketch, product cache eviction,
// frequency admission and counters, the disk cache tier (round-trip bit-identity, encoder bytes against a per-field
// reference, every truncation and lying array counts as typed errors,
// crash safety on corrupt/truncated/stale files, byte-budget eviction and
// the one extra pass it gives each beam's last product, writes skipped by
// frequency admission, manifest rebuild across restarts, the bounded
// write-back backlog),
// bounded + priority queue semantics (weighted dequeue, class-aware
// displacement), request coalescing and backpressure in the scheduler,
// priority-ordered shedding under saturation, cache-hit serving without
// re-dispatch, bulk warm-up via mapred::Engine, concurrent mixed hit/miss
// traffic, builds resumed from a shallower kind or a sibling product, and
// bit-identity of served products with the batch pipeline across all three
// serve paths (RAM hit / disk hit / rebuild).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <span>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "baseline/decision_tree.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "h5lite/granule_io.hpp"
#include "h5lite/h5file.hpp"
#include "pipeline/classifier.hpp"
#include "pipeline/product_builder.hpp"
#include "serve/disk_cache.hpp"
#include "serve/product_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using atl03::SurfaceClass;
using serve::DiskCache;
using serve::GranuleProduct;
using serve::Priority;
using serve::ProductCache;
using serve::ProductKey;
using serve::ProductRequest;
using serve::ProductResponse;
using serve::ServedFrom;

/// Field-exact comparison of two served products (the bit-identity bar every
/// serve path — RAM hit, disk hit, rebuild — must clear vs the batch
/// pipeline).
void expect_bit_identical(const GranuleProduct& a, const GranuleProduct& b) {
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].s, b.segments[i].s);
    EXPECT_EQ(a.segments[i].h_mean, b.segments[i].h_mean);
    EXPECT_EQ(a.segments[i].h_std, b.segments[i].h_std);
    EXPECT_EQ(a.segments[i].photon_rate, b.segments[i].photon_rate);
  }
  ASSERT_EQ(a.classes, b.classes);
  ASSERT_EQ(a.sea_surface.points().size(), b.sea_surface.points().size());
  for (std::size_t i = 0; i < a.sea_surface.points().size(); ++i) {
    EXPECT_EQ(a.sea_surface.points()[i].s, b.sea_surface.points()[i].s);
    EXPECT_EQ(a.sea_surface.points()[i].h_ref, b.sea_surface.points()[i].h_ref);
  }
  ASSERT_EQ(a.freeboard.points.size(), b.freeboard.points.size());
  for (std::size_t i = 0; i < a.freeboard.points.size(); ++i) {
    EXPECT_EQ(a.freeboard.points[i].s, b.freeboard.points[i].s);
    EXPECT_EQ(a.freeboard.points[i].freeboard, b.freeboard.points[i].freeboard);
    EXPECT_EQ(a.freeboard.points[i].cls, b.freeboard.points[i].cls);
  }
}

// ---------------------------------------------------------------------------
// ProductCache
// ---------------------------------------------------------------------------

std::shared_ptr<const GranuleProduct> make_product(const std::string& id,
                                                   std::size_t n_segments) {
  auto p = std::make_shared<GranuleProduct>();
  p->granule_id = id;
  p->segments.resize(n_segments);
  p->classes.resize(n_segments, SurfaceClass::ThickIce);
  return p;
}

ProductKey key_of(const std::string& id, std::uint64_t config_hash = 7) {
  return ProductKey{id, BeamId::Gt1r, config_hash};
}

TEST(ProductCache, LruEvictionOrder) {
  const std::size_t entry = make_product("x", 100)->approx_bytes();
  ProductCache cache(entry * 3 + entry / 2, /*num_shards=*/1);

  cache.put(key_of("a"), make_product("a", 100));
  cache.put(key_of("b"), make_product("b", 100));
  cache.put(key_of("c"), make_product("c", 100));
  ASSERT_EQ(cache.stats().entries, 3u);

  ASSERT_NE(cache.get(key_of("a")), nullptr);  // refresh "a" -> "b" is now LRU
  cache.put(key_of("d"), make_product("d", 100));

  EXPECT_TRUE(cache.contains(key_of("a")));
  EXPECT_FALSE(cache.contains(key_of("b")));
  EXPECT_TRUE(cache.contains(key_of("c")));
  EXPECT_TRUE(cache.contains(key_of("d")));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

TEST(ProductCache, CountersAndReplacement) {
  ProductCache cache(10u << 20, 1);
  EXPECT_EQ(cache.get(key_of("a")), nullptr);  // miss
  cache.put(key_of("a"), make_product("a", 10));
  EXPECT_NE(cache.get(key_of("a")), nullptr);  // hit
  const std::size_t bytes_one = cache.stats().bytes;
  cache.put(key_of("a"), make_product("a", 10));  // replace, not accumulate
  EXPECT_EQ(cache.stats().bytes, bytes_one);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_NEAR(stats.hit_rate(), 0.5, 1e-12);
}

TEST(ProductCache, OversizedEntryStillServes) {
  auto big = make_product("big", 100'000);
  ProductCache cache(big->approx_bytes() / 4, 1);
  cache.put(key_of("small"), make_product("small", 10));
  cache.put(key_of("big"), big);
  // The oversized product evicted everything else but is itself resident, so
  // coalesced requesters still get an answer.
  EXPECT_TRUE(cache.contains(key_of("big")));
  EXPECT_FALSE(cache.contains(key_of("small")));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ProductCache, DistinctConfigHashesAreDistinctEntries) {
  ProductCache cache(10u << 20, 4);
  cache.put(key_of("a", 1), make_product("a", 10));
  cache.put(key_of("a", 2), make_product("a", 10));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(cache.contains(key_of("a", 1)));
  EXPECT_TRUE(cache.contains(key_of("a", 2)));
  EXPECT_FALSE(cache.contains(key_of("a", 3)));
}

// Frequency admission. With one shard the budgets below count products of
// 100 segments; every lookup of a key goes through get(), as a client's
// would, and a miss is followed by the put a build would make.

void get_or_put(ProductCache& cache, const ProductKey& key) {
  if (!cache.get(key)) cache.put(key, make_product(key.granule_id, 100));
}

TEST(ProductCache, ReadEntrySurvivesAScanOfOneOffKeys) {
  const std::size_t entry = make_product("x", 100)->approx_bytes();
  ProductCache cache(entry * 3 + entry / 2, 1);
  get_or_put(cache, key_of("hot"));
  for (int i = 0; i < 3; ++i) ASSERT_NE(cache.get(key_of("hot")), nullptr);

  // Under LRU the third one-off key evicts "hot". Here each one-off key
  // passes through the window and is then rejected: it was read less.
  for (int i = 0; i < 20; ++i) {
    const ProductKey once = key_of("once" + std::to_string(i));
    get_or_put(cache, once);
    EXPECT_TRUE(cache.contains(once));  // the window entry is always resident
    EXPECT_TRUE(cache.contains(key_of("hot"))) << "after one-off key " << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.insertions, 21u);
  EXPECT_EQ(stats.evictions, 18u);
  EXPECT_EQ(stats.admission_rejections, 18u);  // every eviction was a rejection
}

TEST(ProductCache, NewestInsertIsResidentEvenWhenEveryOtherEntryIsHotter) {
  const std::size_t entry = make_product("x", 100)->approx_bytes();
  ProductCache cache(entry * 3 + entry / 2, 1);
  for (const char* id : {"a", "b", "c"}) {
    cache.put(key_of(id), make_product(id, 100));
    for (int i = 0; i < 5; ++i) ASSERT_NE(cache.get(key_of(id)), nullptr);
  }
  // "cold" takes the window: resident when put returns. "c" leaves the
  // window as the candidate and ties with the LRU victim "a": "a" goes.
  cache.put(key_of("cold"), make_product("cold", 100));
  EXPECT_TRUE(cache.contains(key_of("cold")));
  EXPECT_FALSE(cache.contains(key_of("a")));
  EXPECT_EQ(cache.stats().admission_rejections, 0u);

  // The next insert makes "cold" the candidate: read less than the victim
  // "b", it goes instead (LRU would have evicted "b").
  cache.put(key_of("cold2"), make_product("cold2", 100));
  EXPECT_TRUE(cache.contains(key_of("cold2")));
  EXPECT_FALSE(cache.contains(key_of("cold")));
  EXPECT_TRUE(cache.contains(key_of("b")));
  EXPECT_TRUE(cache.contains(key_of("c")));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.admission_rejections, 1u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(ProductCache, FormerlyHotEntryLosesWithinAnAgingPeriodAfterAShift) {
  const std::size_t entry = make_product("x", 100)->approx_bytes();
  ProductCache cache(entry * 2 + entry / 2, 1);
  const ProductKey old_hot = key_of("old"), new_hot = key_of("new");
  get_or_put(cache, old_hot);
  for (int i = 0; i < 3000; ++i) ASSERT_NE(cache.get(old_hot), nullptr);

  // Popularity shifts: each round looks up the new hot key and one one-off
  // key. Without aging the new key would need 3000 lookups (6000 records)
  // to catch up; halving every counter each kAgingPeriod / 2 records after
  // the first period lets it win within one period's worth of records.
  std::uint32_t records = 0;
  bool shifted = false;
  for (int round = 0; round < 4000 && !shifted; ++round) {
    get_or_put(cache, new_hot);
    get_or_put(cache, key_of("once" + std::to_string(round)));
    records += 2;
    if (round == 0) EXPECT_TRUE(cache.contains(old_hot));  // LRU evicts it here
    shifted = !cache.contains(old_hot);
  }
  ASSERT_TRUE(shifted);
  EXPECT_LT(records, serve::FrequencySketch::kAgingPeriod);
  EXPECT_TRUE(cache.contains(new_hot));
}

TEST(ProductCache, ConcurrentGetPutPeekOverThreeEntries) {
  const std::size_t entry = make_product("x", 100)->approx_bytes();
  ProductCache cache(entry * 3 + entry / 2, 1);
  constexpr std::size_t kKeys = 8;
  std::vector<std::shared_ptr<const GranuleProduct>> products;
  for (std::size_t k = 0; k < kKeys; ++k)
    products.push_back(make_product("k" + std::to_string(k), 100));

  std::atomic<std::uint64_t> gets{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(700 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 4000; ++i) {
        // Skewed toward low keys, so the sketch has something to tell.
        const std::size_t k = std::min(rng.next() % kKeys, rng.next() % kKeys);
        const ProductKey key = key_of(products[k]->granule_id);
        std::shared_ptr<const GranuleProduct> got;
        switch (rng.next() % 3) {
          case 0:
            got = cache.get(key);
            gets.fetch_add(1);
            break;
          case 1:
            cache.put(key, products[k]);
            break;
          default:
            got = cache.peek(key);
        }
        if (got && got != products[k]) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, gets.load());
  EXPECT_LE(stats.entries, 3u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
  EXPECT_LE(stats.admission_rejections, stats.evictions);
}

// ---------------------------------------------------------------------------
// FrequencySketch
// ---------------------------------------------------------------------------

using serve::FrequencySketch;

std::size_t hash_of(const std::string& id) { return serve::ProductKeyHash{}(key_of(id)); }

TEST(FrequencySketch, EstimateIsNeverBelowTheTrueCountWithinAnAgingPeriod) {
  // 300 keys over 512 counters per row: collisions are certain, and they
  // can only raise an estimate. 300 x at most 12 records stay within one
  // aging period.
  std::vector<std::uint32_t> truth(300);
  util::Rng rng(5);
  for (auto& n : truth) n = 1 + static_cast<std::uint32_t>(rng.next() % 12);
  FrequencySketch sketch;
  for (std::uint32_t round = 0; round < 12; ++round)
    for (std::size_t k = 0; k < truth.size(); ++k)
      if (round < truth[k]) sketch.record(hash_of("k" + std::to_string(k)));
  std::size_t exact = 0;
  for (std::size_t k = 0; k < truth.size(); ++k) {
    const std::uint32_t estimate = sketch.estimate(hash_of("k" + std::to_string(k)));
    EXPECT_GE(estimate, truth[k]) << "key " << k;
    exact += estimate == truth[k];
  }
  EXPECT_GT(exact, truth.size() * 3 / 4);  // the minimum over rows is mostly exact
  EXPECT_EQ(sketch.estimate(hash_of("never recorded")), 0u);
}

TEST(FrequencySketch, AgingHalvesEveryCounterAndTheRecordCount) {
  constexpr std::uint32_t kPeriod = FrequencySketch::kAgingPeriod;
  FrequencySketch sketch;
  const std::size_t hot = hash_of("hot"), cold = hash_of("cold");
  for (std::uint32_t i = 0; i + 1 < kPeriod; ++i) sketch.record(hot);
  EXPECT_EQ(sketch.estimate(hot), kPeriod - 1);
  sketch.record(cold);  // the period's last record halves every counter
  EXPECT_EQ(sketch.estimate(hot), (kPeriod - 1) / 2);
  EXPECT_EQ(sketch.estimate(cold), 0u);
  // The record count was halved too: the next halving comes half a period
  // later.
  for (std::uint32_t i = 0; i + 1 < kPeriod / 2; ++i) sketch.record(cold);
  EXPECT_EQ(sketch.estimate(hot), (kPeriod - 1) / 2);
  EXPECT_EQ(sketch.estimate(cold), kPeriod / 2 - 1);
  sketch.record(cold);
  EXPECT_EQ(sketch.estimate(hot), (kPeriod - 1) / 4);
  EXPECT_EQ(sketch.estimate(cold), kPeriod / 4);
}

TEST(FrequencySketch, CountersSaturateBelowTheAgingPeriod) {
  // A key recorded without end: its counters never exceed the record
  // count, which aging keeps below kAgingPeriod, so they settle there
  // instead of growing or wrapping.
  constexpr std::uint32_t kPeriod = FrequencySketch::kAgingPeriod;
  FrequencySketch sketch;
  const std::size_t key = hash_of("busy");
  std::uint32_t peak = 0;
  for (std::uint32_t i = 0; i < 20 * kPeriod; ++i) {
    sketch.record(key);
    peak = std::max(peak, sketch.estimate(key));
  }
  EXPECT_EQ(peak, kPeriod - 1);
  EXPECT_GE(sketch.estimate(key), kPeriod / 2);
}

TEST(ConfigFingerprint, SensitiveToConfigAndMethod) {
  const core::PipelineConfig base = core::PipelineConfig::tiny();
  core::PipelineConfig changed = base;
  changed.sequence_window += 2;
  const auto nasa = seasurface::Method::NasaEquation;
  EXPECT_NE(pipeline::config_fingerprint(base, nasa),
            pipeline::config_fingerprint(changed, nasa));
  EXPECT_NE(pipeline::config_fingerprint(base, nasa),
            pipeline::config_fingerprint(base, seasurface::Method::MinElevation));
  EXPECT_EQ(pipeline::config_fingerprint(base, nasa),
            pipeline::config_fingerprint(core::PipelineConfig::tiny(), nasa));
}

// ---------------------------------------------------------------------------
// DiskCache (synthetic products: no campaign needed)
// ---------------------------------------------------------------------------

/// A product with non-trivial values in every serialized field, so a
/// round-trip that drops or reorders anything fails loudly.
GranuleProduct rich_product(std::uint64_t seed, std::size_t n = 64) {
  util::Rng rng(seed);
  GranuleProduct p;
  p.granule_id = "ATL03_rich_" + std::to_string(seed);
  p.beam = BeamId::Gt2r;
  p.segments.resize(n);
  p.classes.resize(n);
  std::vector<seasurface::SeaSurfacePoint> surface(n / 8 + 2);
  p.freeboard.points.resize(n / 2 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    auto& s = p.segments[i];
    s.s = 2.0 * static_cast<double>(i) + rng.uniform();
    s.t = 1.0e8 + rng.uniform();
    s.x = rng.normal();
    s.y = rng.normal();
    s.h_mean = rng.normal() * 0.3;
    s.h_median = s.h_mean + rng.normal() * 0.01;
    s.h_std = std::abs(rng.normal()) * 0.1;
    s.h_min = s.h_mean - s.h_std;
    s.n_photons = static_cast<std::uint32_t>(rng.next() % 500);
    s.photon_rate = rng.uniform() * 3.0;
    s.bckgrd_rate = rng.uniform() * 1e6;
    s.truth = static_cast<SurfaceClass>(rng.next() % 3);
    p.classes[i] = static_cast<SurfaceClass>(rng.next() % 3);
  }
  for (std::size_t i = 0; i < surface.size(); ++i) {
    surface[i].s = 5000.0 * static_cast<double>(i);
    surface[i].h_ref = rng.normal() * 0.05;
    surface[i].sigma = rng.uniform() * 0.01;
    surface[i].n_leads = static_cast<std::uint32_t>(rng.next() % 5);
    surface[i].n_water_segments = static_cast<std::uint32_t>(rng.next() % 40);
    surface[i].interpolated = (rng.next() % 2) == 0;
  }
  p.sea_surface = seasurface::SeaSurfaceProfile(std::move(surface));
  for (std::size_t i = 0; i < p.freeboard.points.size(); ++i) {
    auto& f = p.freeboard.points[i];
    f.s = 2.0 * static_cast<double>(i);
    f.x = rng.normal();
    f.y = rng.normal();
    f.freeboard = rng.uniform() * 0.6 - 0.05;
    f.cls = static_cast<SurfaceClass>(rng.next() % 3);
    f.truth = static_cast<SurfaceClass>(rng.next() % 3);
  }
  return p;
}

/// Exhaustive field comparison for the synthetic round-trip tests (covers
/// the fields expect_bit_identical leaves to the pipeline tests).
void expect_product_equal(const GranuleProduct& a, const GranuleProduct& b) {
  EXPECT_EQ(a.granule_id, b.granule_id);
  EXPECT_EQ(a.beam, b.beam);
  expect_bit_identical(a, b);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].t, b.segments[i].t);
    EXPECT_EQ(a.segments[i].x, b.segments[i].x);
    EXPECT_EQ(a.segments[i].y, b.segments[i].y);
    EXPECT_EQ(a.segments[i].h_median, b.segments[i].h_median);
    EXPECT_EQ(a.segments[i].h_min, b.segments[i].h_min);
    EXPECT_EQ(a.segments[i].n_photons, b.segments[i].n_photons);
    EXPECT_EQ(a.segments[i].bckgrd_rate, b.segments[i].bckgrd_rate);
    EXPECT_EQ(a.segments[i].truth, b.segments[i].truth);
  }
  for (std::size_t i = 0; i < a.sea_surface.points().size(); ++i) {
    EXPECT_EQ(a.sea_surface.points()[i].sigma, b.sea_surface.points()[i].sigma);
    EXPECT_EQ(a.sea_surface.points()[i].n_leads, b.sea_surface.points()[i].n_leads);
    EXPECT_EQ(a.sea_surface.points()[i].n_water_segments,
              b.sea_surface.points()[i].n_water_segments);
    EXPECT_EQ(a.sea_surface.points()[i].interpolated, b.sea_surface.points()[i].interpolated);
  }
  for (std::size_t i = 0; i < a.freeboard.points.size(); ++i) {
    EXPECT_EQ(a.freeboard.points[i].x, b.freeboard.points[i].x);
    EXPECT_EQ(a.freeboard.points[i].y, b.freeboard.points[i].y);
    EXPECT_EQ(a.freeboard.points[i].truth, b.freeboard.points[i].truth);
  }
}

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("is2_disk_cache_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ProductKey rich_key(std::uint64_t seed) const {
    const GranuleProduct p = rich_product(seed);
    return ProductKey{p.granule_id, p.beam, 0xC0FFEE00u + seed};
  }

  std::string path_for(const ProductKey& key) const {
    return (std::filesystem::path(dir_) / DiskCache::filename_for(key)).string();
  }

  std::string dir_;
};

TEST_F(DiskCacheTest, SerializeRoundTripIsBitIdentical) {
  const GranuleProduct p = rich_product(7);
  const ProductKey key = rich_key(7);
  const auto bytes = DiskCache::serialize(key, p);
  const GranuleProduct back = DiskCache::deserialize(bytes, key);
  expect_product_equal(back, p);

  // A different expected key (e.g. filename collision) must not be served.
  ProductKey other = key;
  other.config_hash ^= 1;
  EXPECT_THROW(DiskCache::deserialize(bytes, other), h5::H5Error);
}

/// The IS2P v2 layout written one field at a time through h5::ByteWriter,
/// as the encoder did before it wrote each array as one block: the oracle
/// the production encoder must match byte for byte.
std::vector<std::uint8_t> serialize_per_field(const ProductKey& key,
                                              const GranuleProduct& product) {
  h5::ByteWriter body;
  body.raw(static_cast<std::uint64_t>(product.segments.size()));
  for (const auto& s : product.segments) {
    body.raw(s.s); body.raw(s.t); body.raw(s.x); body.raw(s.y);
    body.raw(s.h_mean); body.raw(s.h_median); body.raw(s.h_std); body.raw(s.h_min);
    body.raw(s.n_photons); body.raw(s.photon_rate); body.raw(s.bckgrd_rate);
    body.raw(static_cast<std::uint8_t>(s.truth));
  }
  body.raw(static_cast<std::uint64_t>(product.classes.size()));
  for (const auto c : product.classes) body.raw(static_cast<std::uint8_t>(c));
  const auto& surface = product.sea_surface.points();
  body.raw(static_cast<std::uint64_t>(surface.size()));
  for (const auto& p : surface) {
    body.raw(p.s); body.raw(p.h_ref); body.raw(p.sigma);
    body.raw(p.n_leads); body.raw(p.n_water_segments);
    body.raw(static_cast<std::uint8_t>(p.interpolated));
  }
  body.raw(static_cast<std::uint64_t>(product.freeboard.points.size()));
  for (const auto& p : product.freeboard.points) {
    body.raw(p.s); body.raw(p.x); body.raw(p.y); body.raw(p.freeboard);
    body.raw(static_cast<std::uint8_t>(p.cls));
    body.raw(static_cast<std::uint8_t>(p.truth));
  }

  h5::ByteWriter out;
  const char magic[4] = {'I', 'S', '2', 'P'};
  out.bytes(reinterpret_cast<const std::uint8_t*>(magic), 4);
  out.raw(DiskCache::kFormatVersion);
  out.raw(key.config_hash);
  out.raw(static_cast<std::uint8_t>(key.beam));
  out.raw(static_cast<std::uint8_t>(key.kind));
  out.raw(static_cast<std::uint8_t>(key.backend));
  out.str(key.granule_id);
  out.raw(static_cast<std::uint64_t>(body.written().size()));
  out.bytes(body.written().data(), body.written().size());
  out.raw(h5::crc32(body.written()));
  return out.release();
}

/// rich_product cut to the artifacts of `kind`, under a matching key.
std::pair<ProductKey, GranuleProduct> rich_product_of_kind(std::uint64_t seed,
                                                           pipeline::ProductKind kind,
                                                           std::size_t n = 64) {
  GranuleProduct p = rich_product(seed, n);
  p.kind = kind;
  if (kind < pipeline::ProductKind::freeboard) p.freeboard = {};
  if (kind < pipeline::ProductKind::seasurface) p.sea_surface = {};
  ProductKey key{p.granule_id, p.beam, 0xC0FFEE00u + seed};
  key.kind = kind;
  return {key, std::move(p)};
}

TEST_F(DiskCacheTest, EncoderBytesMatchPerFieldReference) {
  using pipeline::ProductKind;
  for (const ProductKind kind :
       {ProductKind::classification, ProductKind::seasurface, ProductKind::freeboard}) {
    SCOPED_TRACE(pipeline::product_kind_name(kind));
    const auto [key, p] = rich_product_of_kind(11, kind);
    const auto bytes = DiskCache::serialize(key, p);
    EXPECT_EQ(bytes, serialize_per_field(key, p));
    expect_product_equal(DiskCache::deserialize(bytes, key), p);
  }
  GranuleProduct empty;
  empty.granule_id = "ATL03_empty";
  const ProductKey key{empty.granule_id, empty.beam, 5};
  const auto bytes = DiskCache::serialize(key, empty);
  EXPECT_EQ(bytes, serialize_per_field(key, empty));
  const GranuleProduct back = DiskCache::deserialize(bytes, key);
  EXPECT_TRUE(back.segments.empty());
  EXPECT_TRUE(back.classes.empty());
  EXPECT_TRUE(back.sea_surface.points().empty());
  EXPECT_TRUE(back.freeboard.points.empty());
}

TEST_F(DiskCacheTest, EveryTruncationIsATypedError) {
  const auto [key, p] = rich_product_of_kind(12, pipeline::ProductKind::freeboard, 6);
  const auto bytes = DiskCache::serialize(key, p);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(DiskCache::deserialize(std::span(bytes).first(len), key), h5::H5Error)
        << "prefix of " << len << " of " << bytes.size() << " bytes";
}

TEST_F(DiskCacheTest, LyingArrayCountsAreTypedErrorsBeforeAllocation) {
  // Each of the four u64 counts rewritten, with the CRC recomputed, so the
  // per-array count check is what rejects the file: never std::bad_alloc.
  // The lies: 2^64 - 1, one element more than the bytes left hold, and for
  // an even element size the true count + 2^63, whose byte size wraps to
  // the array's true size: only the count check stands between that file
  // and a 2^63-element resize.
  const auto [key, p] = rich_product_of_kind(13, pipeline::ProductKind::freeboard, 8);
  const auto valid = DiskCache::serialize(key, p);
  const std::size_t header = 4 + 4 + 8 + 1 + 1 + 1 + 4 + key.granule_id.size() + 8;
  const std::size_t crc_at = valid.size() - 4;
  struct Array {
    const char* name;
    std::size_t count;
    std::size_t elem_bytes;
  };
  const Array arrays[] = {{"segments", p.segments.size(), 85},
                          {"classes", p.classes.size(), 1},
                          {"surface", p.sea_surface.points().size(), 33},
                          {"freeboard", p.freeboard.points.size(), 34}};
  std::size_t at = header;  // offset of the current array's count
  for (const Array& a : arrays) {
    SCOPED_TRACE(a.name);
    const std::size_t left = crc_at - (at + 8);  // payload bytes behind the count
    std::vector<std::uint64_t> lies = {~std::uint64_t{0}, left / a.elem_bytes + 1};
    if (a.elem_bytes % 2 == 0) lies.push_back(a.count + (std::uint64_t{1} << 63));
    for (const std::uint64_t lie : lies) {
      auto bytes = valid;
      std::memcpy(bytes.data() + at, &lie, sizeof lie);
      const std::uint32_t crc =
          h5::crc32(std::span(bytes).subspan(header, crc_at - header));
      std::memcpy(bytes.data() + crc_at, &crc, sizeof crc);
      try {
        (void)DiskCache::deserialize(bytes, key);
        ADD_FAILURE() << "count " << lie << " accepted";
      } catch (const h5::H5Error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "count " << lie << " threw " << e.what() << ", not h5::H5Error";
      }
    }
    at += 8 + a.count * a.elem_bytes;
  }
  ASSERT_EQ(at, crc_at);  // the four arrays fill the payload
}

TEST_F(DiskCacheTest, PutGetAcrossRestartAndLruEviction) {
  const GranuleProduct p0 = rich_product(0), p1 = rich_product(1), p2 = rich_product(2);
  const std::size_t file_bytes = DiskCache::serialize(rich_key(0), p0).size();
  {
    DiskCache cache({dir_, file_bytes * 2 + file_bytes / 2});
    cache.put(rich_key(0), p0);
    cache.put(rich_key(1), p1);
    EXPECT_EQ(cache.stats().entries, 2u);
    auto got = cache.get(rich_key(0));  // refresh key 0 -> key 1 is LRU
    ASSERT_NE(got, nullptr);
    expect_product_equal(*got, p0);
    cache.put(rich_key(2), p2);  // evicts key 1
    EXPECT_TRUE(cache.contains(rich_key(0)));
    EXPECT_FALSE(cache.contains(rich_key(1)));
    EXPECT_TRUE(cache.contains(rich_key(2)));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, cache.byte_budget());
  }
  // Restart: the manifest is rebuilt from the surviving files.
  DiskCache reopened({dir_, file_bytes * 4});
  EXPECT_EQ(reopened.stats().entries, 2u);
  auto got = reopened.get(rich_key(2));
  ASSERT_NE(got, nullptr);
  expect_product_equal(*got, p2);
  EXPECT_EQ(reopened.get(rich_key(1)), nullptr);  // evicted stays evicted
}

TEST_F(DiskCacheTest, CorruptFilesAreMissesAndDeleted) {
  const GranuleProduct p = rich_product(3);
  const ProductKey key = rich_key(3);
  const auto valid = DiskCache::serialize(key, p);

  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Case> cases;
  cases.push_back({"truncated_mid_payload",
                   {valid.begin(), valid.begin() + static_cast<long>(valid.size() / 2)}});
  cases.push_back({"empty", {}});
  Case bad_version{"wrong_format_version", valid};
  bad_version.bytes[4] ^= 0x40;  // u32 version field after the 4-byte magic
  cases.push_back(std::move(bad_version));
  Case bad_crc{"payload_bit_flip", valid};
  bad_crc.bytes[bad_crc.bytes.size() - 20] ^= 0x01;  // inside the payload
  cases.push_back(std::move(bad_crc));
  Case bad_magic{"foreign_file", valid};
  bad_magic.bytes[0] = 'X';
  cases.push_back(std::move(bad_magic));

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    DiskCache cache({dir_, 64u << 20});
    cache.put(key, p);
    {  // overwrite the published file with the corrupt fixture
      std::ofstream out(path_for(key), std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(c.bytes.data()),
                static_cast<std::streamsize>(c.bytes.size()));
    }
    EXPECT_EQ(cache.get(key), nullptr);  // never served
    EXPECT_FALSE(std::filesystem::exists(path_for(key)));  // deleted
    EXPECT_FALSE(cache.contains(key));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.corrupt_dropped, 1u);
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(DiskCacheTest, StartupScanDropsPartialAndStaleFiles) {
  const GranuleProduct p = rich_product(4);
  const ProductKey key = rich_key(4);
  {
    DiskCache cache({dir_, 64u << 20});
    cache.put(key, p);
  }
  // A crashed writer's leftover temp file and a header-truncated cache file.
  const std::string tmp_leftover = path_for(key) + ".tmp.12345.0";
  {
    std::ofstream out(tmp_leftover, std::ios::binary);
    out << "partial";
  }
  const std::string truncated =
      (std::filesystem::path(dir_) / "short.is2p").string();
  {
    std::ofstream out(truncated, std::ios::binary);
    out << "IS";
  }

  DiskCache reopened({dir_, 64u << 20});
  EXPECT_FALSE(std::filesystem::exists(tmp_leftover));
  EXPECT_FALSE(std::filesystem::exists(truncated));
  EXPECT_EQ(reopened.stats().corrupt_dropped, 2u);
  EXPECT_EQ(reopened.stats().entries, 1u);  // the valid file survived
  auto got = reopened.get(key);
  ASSERT_NE(got, nullptr);
  expect_product_equal(*got, p);
}

// Seed-aware eviction. A beam group is (granule, beam, backend): keys of one
// granule id below share a beam, whatever their config hash. Granule ids
// have equal length, so every file has the same size and budgets count files.

ProductKey beam_key(const char* granule, std::uint64_t config_hash) {
  return ProductKey{granule, BeamId::Gt1r, config_hash};
}

std::size_t budget_for_files(std::size_t files) {
  const std::size_t file_bytes =
      DiskCache::serialize(beam_key("ATL03_A", 1), rich_product(0)).size();
  return file_bytes * files + file_bytes / 2;
}

TEST_F(DiskCacheTest, BeamsLastProductIsSparedAtTheLruEnd) {
  // B1 is its beam's only product, A1 and A2 share a beam. The fourth put
  // finds B1 at the LRU end: it is spared, and A1 goes in its place.
  const GranuleProduct p = rich_product(0);
  const ProductKey b1 = beam_key("ATL03_B", 1), a1 = beam_key("ATL03_A", 1),
                   a2 = beam_key("ATL03_A", 2), c1 = beam_key("ATL03_C", 1);
  DiskCache cache({dir_, budget_for_files(3)});
  for (const ProductKey& k : {b1, a1, a2, c1}) cache.put(k, p);
  EXPECT_TRUE(cache.contains(b1));
  EXPECT_FALSE(cache.contains(a1));
  EXPECT_TRUE(cache.contains(a2));
  EXPECT_TRUE(cache.contains(c1));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.seed_evictions, 0u);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

TEST_F(DiskCacheTest, UnreadSeedIsEvictedOnItsSecondPass) {
  const GranuleProduct p = rich_product(0);
  const ProductKey b1 = beam_key("ATL03_B", 1), a1 = beam_key("ATL03_A", 1),
                   a2 = beam_key("ATL03_A", 2), a3 = beam_key("ATL03_A", 3),
                   a4 = beam_key("ATL03_A", 4), c1 = beam_key("ATL03_C", 1);
  DiskCache cache({dir_, budget_for_files(3)});
  for (const ProductKey& k : {b1, a1, a2, c1}) cache.put(k, p);  // B1 spared, A1 out
  cache.put(a3, p);  // A2 out: beam A keeps A3
  EXPECT_TRUE(cache.contains(b1));
  EXPECT_FALSE(cache.contains(a2));
  cache.put(a4, p);  // C1 spared once; B1, already spared and never read, goes
  EXPECT_FALSE(cache.contains(b1));
  EXPECT_TRUE(cache.contains(c1));
  EXPECT_TRUE(cache.contains(a3));
  EXPECT_TRUE(cache.contains(a4));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3u);       // A1, A2, B1
  EXPECT_EQ(stats.seed_evictions, 1u);  // B1 was its beam's last product
}

TEST_F(DiskCacheTest, PeekBetweenPassesEarnsTheSeedAnotherPass) {
  // The same traffic as above, but the service's resume probe reads B1
  // (a speculative peek) after its first pass: B1 is spared again.
  const GranuleProduct p = rich_product(0);
  const ProductKey b1 = beam_key("ATL03_B", 1), a1 = beam_key("ATL03_A", 1),
                   a2 = beam_key("ATL03_A", 2), a3 = beam_key("ATL03_A", 3),
                   a4 = beam_key("ATL03_A", 4), c1 = beam_key("ATL03_C", 1);
  DiskCache cache({dir_, budget_for_files(3)});
  for (const ProductKey& k : {b1, a1, a2, c1}) cache.put(k, p);
  ASSERT_NE(cache.peek(b1), nullptr);
  cache.put(a3, p);
  cache.put(a4, p);  // C1 and B1 spared; A3 goes
  EXPECT_TRUE(cache.contains(b1));
  EXPECT_TRUE(cache.contains(c1));
  EXPECT_FALSE(cache.contains(a3));
  EXPECT_TRUE(cache.contains(a4));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.seed_evictions, 0u);
  EXPECT_EQ(stats.hits, 0u);  // a peek is not a client lookup
}

TEST_F(DiskCacheTest, RestartRebuildsBeamCountsAndStartsUnspared) {
  const GranuleProduct p = rich_product(0);
  const ProductKey b1 = beam_key("ATL03_B", 1), a1 = beam_key("ATL03_A", 1),
                   a2 = beam_key("ATL03_A", 2), a3 = beam_key("ATL03_A", 3),
                   c1 = beam_key("ATL03_C", 1), d1 = beam_key("ATL03_D", 1);
  {
    DiskCache cache({dir_, budget_for_files(4)});
    for (const ProductKey& k : {b1, a1, a2, a3, c1}) cache.put(k, p);  // B1 spared, A1 out
    ASSERT_TRUE(cache.contains(b1));
    ASSERT_FALSE(cache.contains(a1));
  }
  // The startup scan orders by mtime: make B1 the oldest file, so it is at
  // the LRU end again.
  const auto now = std::filesystem::file_time_type::clock::now();
  int age = 4;
  for (const ProductKey& k : {b1, a2, a3, c1})
    std::filesystem::last_write_time(path_for(k), now - std::chrono::minutes(age--));

  DiskCache reopened({dir_, budget_for_files(4)});
  EXPECT_EQ(reopened.stats().entries, 4u);
  // B1's mark did not survive the restart, and the counts read from the
  // file headers say B1 is its beam's last product and A2 is not.
  reopened.put(d1, p);
  EXPECT_TRUE(reopened.contains(b1));
  EXPECT_FALSE(reopened.contains(a2));
  EXPECT_TRUE(reopened.contains(a3));
  EXPECT_EQ(reopened.stats().evictions, 1u);
  EXPECT_EQ(reopened.stats().seed_evictions, 0u);
}

TEST_F(DiskCacheTest, StaleProductOfABeamGoesBeforeItsFreshOne) {
  // Beam B holds a product under an older config hash and a fresh one. The
  // group is the beam, not the config: the stale file is not a seed and
  // goes first, and then the fresh one is the seed.
  const GranuleProduct p = rich_product(0);
  const ProductKey b_stale = beam_key("ATL03_B", 1), b_fresh = beam_key("ATL03_B", 2),
                   a1 = beam_key("ATL03_A", 1), a2 = beam_key("ATL03_A", 2),
                   c1 = beam_key("ATL03_C", 1), d1 = beam_key("ATL03_D", 1);
  DiskCache cache({dir_, budget_for_files(4)});
  for (const ProductKey& k : {b_stale, b_fresh, a1, a2}) cache.put(k, p);
  cache.put(c1, p);
  EXPECT_FALSE(cache.contains(b_stale));
  EXPECT_TRUE(cache.contains(a1));
  cache.put(d1, p);  // B's fresh product is now its seed: spared, A1 goes
  EXPECT_TRUE(cache.contains(b_fresh));
  EXPECT_FALSE(cache.contains(a1));
  EXPECT_TRUE(cache.contains(a2));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().seed_evictions, 0u);
}

TEST_F(DiskCacheTest, ColdWriteThatWouldDisplaceAHotterFileIsSkipped) {
  const GranuleProduct p = rich_product(0);
  const ProductKey a1 = beam_key("ATL03_A", 1), a2 = beam_key("ATL03_A", 2),
                   a3 = beam_key("ATL03_A", 3), b1 = beam_key("ATL03_B", 1);
  DiskCache cache({dir_, budget_for_files(3)});
  for (const ProductKey& k : {a1, a2, b1}) {
    ASSERT_TRUE(cache.put(k, p));
    ASSERT_NE(cache.get(k), nullptr);
  }
  // A3 is new, beam A has resident products and the directory is full: the
  // write would displace A1 (read once), and A3 was never read. It is
  // skipped before any IO, so a write fault armed on every call never fires.
  util::fault::Plan plan(41);
  util::fault::SiteConfig always;
  always.fail_every = 1;
  plan.on("disk.write", always);
  {
    util::fault::Armed armed(plan);
    EXPECT_FALSE(cache.put(a3, p));
  }
  EXPECT_EQ(plan.hits("disk.write"), 0u);
  EXPECT_FALSE(cache.contains(a3));
  EXPECT_FALSE(std::filesystem::exists(path_for(a3)));
  auto stats = cache.stats();
  EXPECT_EQ(stats.writes, 3u);
  EXPECT_EQ(stats.admission_rejections, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 3u);

  // Once A3 is read as often as A1, the tie admits it and A1 goes.
  EXPECT_EQ(cache.get(a3), nullptr);
  EXPECT_TRUE(cache.put(a3, p));
  EXPECT_TRUE(cache.contains(a3));
  EXPECT_FALSE(cache.contains(a1));
  stats = cache.stats();
  EXPECT_EQ(stats.writes, 4u);
  EXPECT_EQ(stats.admission_rejections, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST_F(DiskCacheTest, BeamsFirstProductIsWrittenEvenWhenColderThanEveryVictim) {
  // C1 would be its beam's seed: no admission check, whatever it displaces.
  const GranuleProduct p = rich_product(0);
  const ProductKey a1 = beam_key("ATL03_A", 1), a2 = beam_key("ATL03_A", 2),
                   b1 = beam_key("ATL03_B", 1), c1 = beam_key("ATL03_C", 1);
  DiskCache cache({dir_, budget_for_files(3)});
  for (const ProductKey& k : {a1, a2, b1}) {
    ASSERT_TRUE(cache.put(k, p));
    for (int i = 0; i < 3; ++i) ASSERT_NE(cache.get(k), nullptr);
  }
  EXPECT_TRUE(cache.put(c1, p));
  EXPECT_TRUE(cache.contains(c1));
  EXPECT_FALSE(cache.contains(a1));  // the LRU end, not a seed
  const auto stats = cache.stats();
  EXPECT_EQ(stats.admission_rejections, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST_F(DiskCacheTest, SketchStartsEmptyAfterARestartSoFirstEvictionsAreLru) {
  const GranuleProduct p = rich_product(0);
  const ProductKey a1 = beam_key("ATL03_A", 1), a2 = beam_key("ATL03_A", 2),
                   a3 = beam_key("ATL03_A", 3), b1 = beam_key("ATL03_B", 1);
  {
    DiskCache cache({dir_, budget_for_files(3)});
    for (const ProductKey& k : {a1, a2, b1}) ASSERT_TRUE(cache.put(k, p));
    for (int i = 0; i < 5; ++i) ASSERT_NE(cache.get(a1), nullptr);
  }
  // Make A1 the oldest file, so the rebuilt manifest has it at the LRU end.
  const auto now = std::filesystem::file_time_type::clock::now();
  int age = 3;
  for (const ProductKey& k : {a1, a2, b1})
    std::filesystem::last_write_time(path_for(k), now - std::chrono::minutes(age--));

  // A1's reads were not persisted: A3 ties with it at 0 and is written.
  DiskCache reopened({dir_, budget_for_files(3)});
  EXPECT_TRUE(reopened.put(a3, p));
  EXPECT_FALSE(reopened.contains(a1));
  EXPECT_TRUE(reopened.contains(a2));
  EXPECT_TRUE(reopened.contains(a3));
  EXPECT_EQ(reopened.stats().admission_rejections, 0u);
  EXPECT_EQ(reopened.stats().evictions, 1u);
}

TEST_F(DiskCacheTest, EncodedSizeIsTheSerializedSize) {
  for (const std::uint64_t seed : {0u, 1u, 7u}) {
    const GranuleProduct p = rich_product(seed, 16 * seed);
    EXPECT_EQ(DiskCache::encoded_size(rich_key(seed), p),
              DiskCache::serialize(rich_key(seed), p).size());
  }
}

// ---------------------------------------------------------------------------
// PriorityQueue
// ---------------------------------------------------------------------------

TEST(PriorityQueue, WeightedDequeueAndFifoWithinClass) {
  serve::PriorityQueue<int> q(16, {2, 1, 1});
  ASSERT_TRUE(q.try_push(100, Priority::background));
  ASSERT_TRUE(q.try_push(101, Priority::background));
  ASSERT_TRUE(q.try_push(10, Priority::batch));
  ASSERT_TRUE(q.try_push(11, Priority::batch));
  ASSERT_TRUE(q.try_push(1, Priority::interactive));
  ASSERT_TRUE(q.try_push(2, Priority::interactive));
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.size(Priority::background), 2u);

  // Weights (2,1,1): interactive twice, then batch, then background, then a
  // credit refill lets the remaining batch/background items through — FIFO
  // within each class throughout.
  std::vector<std::pair<int, Priority>> order;
  for (int i = 0; i < 6; ++i) order.push_back(*q.pop());
  const std::vector<std::pair<int, Priority>> expected = {
      {1, Priority::interactive}, {2, Priority::interactive}, {10, Priority::batch},
      {100, Priority::background}, {11, Priority::batch},     {101, Priority::background}};
  EXPECT_EQ(order, expected);

  q.close();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_push(7, Priority::interactive));
}

TEST(PriorityQueue, DisplacementShedsBackgroundFirst) {
  serve::PriorityQueue<int> q(3);
  ASSERT_TRUE(q.try_push(1, Priority::batch));
  ASSERT_TRUE(q.try_push(2, Priority::background));
  ASSERT_TRUE(q.try_push(3, Priority::background));  // full

  std::optional<std::pair<int, Priority>> victim;
  // Interactive displaces the NEWEST background item first.
  ASSERT_TRUE(q.try_push(4, Priority::interactive, &victim));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->first, 3);
  EXPECT_EQ(victim->second, Priority::background);
  ASSERT_TRUE(q.try_push(5, Priority::interactive, &victim));
  EXPECT_EQ(victim->first, 2);
  // Background exhausted: batch is next in the shed order.
  ASSERT_TRUE(q.try_push(6, Priority::interactive, &victim));
  EXPECT_EQ(victim->first, 1);
  EXPECT_EQ(victim->second, Priority::batch);
  // Nothing strictly below interactive remains: the push itself is shed.
  EXPECT_FALSE(q.try_push(7, Priority::interactive, &victim));
  EXPECT_FALSE(victim.has_value());
  // A lower class never displaces its own or a higher class.
  EXPECT_FALSE(q.try_push(8, Priority::background, &victim));
  EXPECT_FALSE(victim.has_value());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.size(Priority::interactive), 3u);
}

TEST(PriorityQueue, PromoteMovesQueuedItemToHigherClass) {
  serve::PriorityQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, Priority::background));
  ASSERT_TRUE(q.try_push(2, Priority::background));
  EXPECT_TRUE(q.promote(2, Priority::interactive));
  EXPECT_EQ(q.size(Priority::interactive), 1u);
  EXPECT_EQ(q.size(Priority::background), 1u);
  // Promoted item dequeues before the background one it used to trail.
  EXPECT_EQ(q.pop()->first, 2);
  EXPECT_EQ(q.pop()->first, 1);
  // Absent (already popped) items cannot be promoted.
  EXPECT_FALSE(q.promote(1, Priority::interactive));
}

// ---------------------------------------------------------------------------
// BatchScheduler (controlled builder: no campaign needed)
// ---------------------------------------------------------------------------

struct GatedBuilder {
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> builds{0};

  serve::BatchScheduler::Builder fn() {
    return [this](const ProductRequest&, const ProductKey& key) {
      open.wait();
      builds.fetch_add(1);
      auto p = std::make_shared<GranuleProduct>();
      p->granule_id = key.granule_id;
      return ProductResponse{p, false, 0.0};
    };
  }
};

ProductRequest req_named(const std::string& id) {
  ProductRequest r;
  r.granule_id = id;
  return r;
}

TEST(BatchScheduler, CoalescesConcurrentRequestsForOneKey) {
  GatedBuilder builder;
  serve::BatchScheduler sched({/*workers=*/2, /*queue_capacity=*/8}, builder.fn());

  auto f1 = sched.submit(req_named("k1"), key_of("k1"));
  auto f2 = sched.submit(req_named("k1"), key_of("k1"));
  auto f3 = sched.submit(req_named("k1"), key_of("k1"));
  {
    const auto stats = sched.stats();
    EXPECT_EQ(stats.dispatched, 1u);
    EXPECT_EQ(stats.coalesced, 2u);
  }

  builder.gate.set_value();
  const ProductResponse r1 = f1.get(), r2 = f2.get(), r3 = f3.get();
  EXPECT_EQ(r1.product.get(), r2.product.get());  // one build shared by all
  EXPECT_EQ(r1.product.get(), r3.product.get());
  EXPECT_EQ(builder.builds.load(), 1);
  EXPECT_GE(r1.service_ms, 0.0);

  sched.shutdown();
  EXPECT_EQ(sched.stats().completed, 1u);
  EXPECT_EQ(sched.stats().in_flight, 0u);
}

TEST(BatchScheduler, BackpressureRejectsAndBlocks) {
  GatedBuilder builder;
  serve::BatchScheduler sched({/*workers=*/1, /*queue_capacity=*/1}, builder.fn());

  // k1 gets popped by the (gated) worker; wait until it leaves the queue.
  auto f1 = sched.submit(req_named("k1"), key_of("k1"));
  while (sched.stats().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto f2 = sched.submit(req_named("k2"), key_of("k2"));  // fills the queue
  EXPECT_EQ(sched.stats().queue_depth, 1u);

  // Cold third key: shed.
  EXPECT_FALSE(sched.try_submit(req_named("k3"), key_of("k3")).has_value());
  EXPECT_EQ(sched.stats().rejected, 1u);
  // try_submit for an in-flight key still attaches for free.
  auto f2b = sched.try_submit(req_named("k2"), key_of("k2"));
  ASSERT_TRUE(f2b.has_value());
  EXPECT_EQ(sched.stats().coalesced, 1u);

  // Blocking submit parks on the full queue until the worker frees space.
  std::atomic<bool> accepted{false};
  std::thread t([&] {
    auto f4 = sched.submit(req_named("k4"), key_of("k4"));
    accepted = true;
    f4.wait();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(accepted.load());  // worker is gated, queue still full

  builder.gate.set_value();
  t.join();
  EXPECT_TRUE(accepted.load());
  EXPECT_EQ(f1.get().product->granule_id, "k1");
  EXPECT_EQ(f2.get().product.get(), f2b->get().product.get());
  sched.shutdown();
  EXPECT_EQ(sched.stats().completed, 3u);  // k1, k2, k4
}

TEST(BatchScheduler, ShutdownDrainsAcceptedWork) {
  GatedBuilder builder;
  builder.gate.set_value();  // builds run immediately
  std::vector<serve::ProductFuture> futures;
  {
    serve::BatchScheduler sched({2, 16}, builder.fn());
    for (int i = 0; i < 8; ++i) {
      const std::string id = "g" + std::to_string(i);
      futures.push_back(sched.submit(req_named(id), key_of(id)));
    }
    sched.shutdown();
  }
  for (auto& f : futures) EXPECT_NE(f.get().product, nullptr);
  EXPECT_EQ(builder.builds.load(), 8);
}

TEST(BatchScheduler, PrioritySheddingIsClassOrderedUnderSaturation) {
  GatedBuilder builder;
  serve::BatchScheduler sched({/*workers=*/1, /*queue_capacity=*/2}, builder.fn());

  auto bg_req = [](const std::string& id) {
    ProductRequest r = req_named(id);
    r.priority = Priority::background;
    return r;
  };
  auto fg_req = [](const std::string& id) {
    ProductRequest r = req_named(id);
    r.priority = Priority::interactive;
    return r;
  };

  // k0 occupies the (gated) worker; wait until it leaves the queue, then
  // saturate the queue with background work.
  auto f0 = sched.submit(bg_req("k0"), key_of("k0"));
  while (sched.stats().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto f1 = sched.submit(bg_req("k1"), key_of("k1"));
  auto f2 = sched.submit(bg_req("k2"), key_of("k2"));
  EXPECT_EQ(sched.stats().queue_depth_by_class[2], 2u);

  // Interactive admission displaces the newest background job (k2); its
  // waiters see ShedError, and the shed class is reported to the caller.
  std::optional<Priority> shed;
  auto fi1 = sched.try_submit(fg_req("k3"), key_of("k3"), &shed);
  ASSERT_TRUE(fi1.has_value());
  EXPECT_EQ(shed, Priority::background);
  EXPECT_THROW(f2.get(), serve::ShedError);
  auto fi2 = sched.try_submit(fg_req("k4"), key_of("k4"), &shed);
  ASSERT_TRUE(fi2.has_value());
  EXPECT_EQ(shed, Priority::background);
  EXPECT_THROW(f1.get(), serve::ShedError);

  // Queue now holds only interactive work: an incoming background (or equal
  // interactive) request is shed itself instead of displacing anything.
  EXPECT_FALSE(sched.try_submit(bg_req("k5"), key_of("k5"), &shed).has_value());
  EXPECT_EQ(shed, Priority::background);
  EXPECT_FALSE(sched.try_submit(fg_req("k6"), key_of("k6"), &shed).has_value());
  EXPECT_EQ(shed, Priority::interactive);

  builder.gate.set_value();
  ASSERT_NE(f0.get().product, nullptr);
  ASSERT_NE(fi1->get().product, nullptr);
  ASSERT_NE(fi2->get().product, nullptr);
  sched.shutdown();

  const auto stats = sched.stats();
  EXPECT_EQ(stats.displaced, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.shed_by_class[static_cast<std::size_t>(Priority::background)], 3u);
  EXPECT_EQ(stats.shed_by_class[static_cast<std::size_t>(Priority::interactive)], 1u);
  EXPECT_EQ(stats.completed, 3u);  // k0, k3, k4 built; k1/k2 shed pre-build
}

TEST(BatchScheduler, CoalescingPromotesQueuedJobClass) {
  GatedBuilder builder;
  serve::BatchScheduler sched({/*workers=*/1, /*queue_capacity=*/4}, builder.fn());

  ProductRequest bg = req_named("k0");
  bg.priority = Priority::background;
  auto f0 = sched.submit(bg, key_of("k0"));  // occupies the gated worker
  while (sched.stats().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  ProductRequest queued_bg = req_named("k1");
  queued_bg.priority = Priority::background;
  auto f1 = sched.submit(queued_bg, key_of("k1"));
  EXPECT_EQ(sched.stats().queue_depth_by_class[2], 1u);

  // An interactive requester coalescing onto the queued background job
  // drags it into the interactive lane (it now outranks later batch work
  // and cannot be displaced by interactive admissions).
  ProductRequest fg = queued_bg;
  fg.priority = Priority::interactive;
  auto f1b = sched.submit(fg, key_of("k1"));
  EXPECT_EQ(sched.stats().coalesced, 1u);
  EXPECT_EQ(sched.stats().queue_depth_by_class[0], 1u);
  EXPECT_EQ(sched.stats().queue_depth_by_class[2], 0u);

  builder.gate.set_value();
  EXPECT_EQ(f1.get().product.get(), f1b.get().product.get());  // still one build
  ASSERT_NE(f0.get().product, nullptr);
  sched.shutdown();
  EXPECT_EQ(sched.stats().completed, 2u);
}

TEST(BatchScheduler, SubmitAfterShutdownIsBrokenNotRetryable) {
  GatedBuilder builder;
  builder.gate.set_value();
  serve::BatchScheduler sched({1, 4}, builder.fn());
  sched.shutdown();

  // Not nullopt: load-shedding clients must be able to tell "full, retry
  // later" apart from "down for good".
  auto maybe = sched.try_submit(req_named("k1"), key_of("k1"));
  ASSERT_TRUE(maybe.has_value());
  EXPECT_THROW(maybe->get(), std::runtime_error);
  EXPECT_THROW(sched.submit(req_named("k2"), key_of("k2")).get(), std::runtime_error);
  EXPECT_EQ(sched.stats().rejected, 0u);
  EXPECT_EQ(sched.stats().dispatched, 0u);
}

TEST(BatchScheduler, SubmitRacingShutdownIsShedDeterministically) {
  // The one shutdown window: a submit that passed the shut_down_ check and
  // is blocked in the queue push when close() lands. It must fail as *shed*
  // work (ShedError, retryable, counted) — not hang, not a generic error —
  // while everything accepted before the close still drains.
  GatedBuilder builder;
  serve::BatchScheduler sched({/*workers=*/1, /*queue_capacity=*/1}, builder.fn());

  auto f1 = sched.submit(req_named("k1"), key_of("k1"));  // held by gated worker
  while (sched.stats().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto f2 = sched.submit(req_named("k2"), key_of("k2"));  // fills the queue

  // k3 registers as in-flight, then parks inside the blocking push.
  serve::ProductFuture f3;
  std::thread submitter([&] { f3 = sched.submit(req_named("k3"), key_of("k3")); });
  while (sched.stats().in_flight != 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(sched.stats().dispatched, 2u);  // k3 never landed in the queue

  // shutdown() closes the queue (failing k3's push) and then blocks on the
  // drain, which the gate still holds — so it needs its own thread.
  std::thread closer([&] { sched.shutdown(); });
  submitter.join();
  EXPECT_THROW(f3.get(), serve::ShedError);
  EXPECT_EQ(sched.stats().rejected, 1u);

  builder.gate.set_value();
  closer.join();
  EXPECT_NE(f1.get().product, nullptr);  // accepted work drained
  EXPECT_NE(f2.get().product, nullptr);
  const auto stats = sched.stats();
  EXPECT_EQ(stats.dispatched, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(BatchScheduler, ShutdownUnderSubmitLoadResolvesEveryFuture) {
  // Hammer the same race nondeterministically: submitters racing shutdown
  // must each get exactly one of (product, ShedError, "shut down" error) —
  // no hangs, no lost futures — and accepted == completed after the drain.
  GatedBuilder builder;
  builder.gate.set_value();
  serve::BatchScheduler sched({/*workers=*/2, /*queue_capacity=*/2}, builder.fn());

  std::mutex mu;
  std::vector<serve::ProductFuture> futures;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string id = "g" + std::to_string(t) + "_" + std::to_string(i);
        auto f = sched.submit(req_named(id), key_of(id));
        std::lock_guard lock(mu);
        futures.push_back(std::move(f));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sched.shutdown();
  for (auto& t : threads) t.join();

  std::uint64_t served = 0, shed = 0, refused = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    try {
      ASSERT_NE(f.get().product, nullptr);
      ++served;
    } catch (const serve::ShedError&) {
      ++shed;  // lost the push-vs-close race
    } catch (const std::runtime_error&) {
      ++refused;  // saw shut_down_ up front
    }
  }
  EXPECT_EQ(served + shed + refused, futures.size());
  const auto stats = sched.stats();
  EXPECT_EQ(stats.dispatched, served);   // every accepted job was drained...
  EXPECT_EQ(stats.completed, served);    // ...to completion
  EXPECT_EQ(stats.rejected, shed);
  EXPECT_EQ(stats.in_flight, 0u);
}

// ---------------------------------------------------------------------------
// GranuleService on a tiny campaign
// ---------------------------------------------------------------------------

class ServeCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    pair_ = new core::PairDataset(campaign_->generate(1));  // pair 2: zero drift

    dir_ = (std::filesystem::temp_directory_path() /
            ("is2_serve_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    shards_ = new core::ShardSet();
    core::write_shards(pair_->granule, 0, /*chunks_per_beam=*/2, dir_, *shards_);
    index_ = new serve::ShardIndex(serve::ShardIndex::build(shards_->files));

    // Fit the scaler the way the batch pipeline would (on beam features).
    const auto* files = index_->find(pair_->granule.id, BeamId::Gt1r);
    ASSERT_NE(files, nullptr);
    const auto merged = serve::ShardIndex::load_merged(*files);
    const auto pre = atl03::preprocess_beam(merged, merged.beams[0],
                                            campaign_->corrections(), config_->preprocess);
    auto segments = resample::resample(pre, config_->segmenter);
    const resample::FirstPhotonBiasCorrector fpb(config_->instrument.dead_time_m,
                                                 config_->instrument.strong_channels);
    fpb.apply(segments);
    const auto features =
        resample::to_features(segments, resample::rolling_baseline(segments));
    scaler_ = new resample::FeatureScaler(resample::FeatureScaler::fit(features));

    // A fitted decision tree for the second classifier backend (trained on
    // feature rows vs photon truth; quality is irrelevant to these tests,
    // identity and determinism are).
    std::vector<float> x;
    std::vector<std::uint8_t> y;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].truth == SurfaceClass::Unknown) continue;
      for (int d = 0; d < resample::FeatureRow::kDim; ++d) x.push_back(features[i].v[d]);
      y.push_back(static_cast<std::uint8_t>(segments[i].truth));
    }
    tree_ = new baseline::DecisionTree();
    tree_->fit(x, resample::FeatureRow::kDim, y, atl03::kNumClasses);
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    delete tree_;
    tree_ = nullptr;
    delete scaler_;
    delete index_;
    delete shards_;
    delete pair_;
    delete campaign_;
    delete config_;
    scaler_ = nullptr;
    index_ = nullptr;
    shards_ = nullptr;
    pair_ = nullptr;
    campaign_ = nullptr;
    config_ = nullptr;
  }

  /// Deterministic replica source: every call yields identical weights.
  static nn::Sequential make_model() {
    util::Rng rng(99);
    return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
  }

  static std::unique_ptr<serve::GranuleService> make_service(serve::ServiceConfig cfg) {
    return std::make_unique<serve::GranuleService>(cfg, *config_, campaign_->corrections(),
                                                   *index_, &ServeCampaign::make_model,
                                                   *scaler_);
  }

  /// Service with both classifier backends configured.
  static std::unique_ptr<serve::GranuleService> make_service_with_tree(
      serve::ServiceConfig cfg) {
    return std::make_unique<serve::GranuleService>(
        cfg, *config_, campaign_->corrections(), *index_, &ServeCampaign::make_model,
        *scaler_, [] { return *tree_; });
  }

  static ProductRequest request(BeamId beam,
                                seasurface::Method method = seasurface::Method::NasaEquation) {
    ProductRequest r;
    r.granule_id = pair_->granule.id;
    r.beam = beam;
    r.method = method;
    return r;
  }

  /// The batch pipeline run by hand on the same shards: the ground truth the
  /// served product must match bit for bit.
  static GranuleProduct batch_reference(BeamId beam, seasurface::Method method) {
    const auto* files = index_->find(pair_->granule.id, beam);
    EXPECT_NE(files, nullptr);
    const auto merged = serve::ShardIndex::load_merged(*files);
    const auto pre = atl03::preprocess_beam(merged, merged.beams[0],
                                            campaign_->corrections(), config_->preprocess);
    auto segments = resample::resample(pre, config_->segmenter);
    const resample::FirstPhotonBiasCorrector fpb(config_->instrument.dead_time_m,
                                                 config_->instrument.strong_channels);
    fpb.apply(segments);
    const auto features =
        resample::to_features(segments, resample::rolling_baseline(segments));
    nn::Sequential model = make_model();
    GranuleProduct out;
    out.granule_id = pair_->granule.id;
    out.beam = beam;
    out.classes =
        pipeline::classify_windows(model, *scaler_, features, config_->sequence_window);
    out.sea_surface =
        seasurface::detect_sea_surface(segments, out.classes, method, config_->seasurface);
    out.freeboard =
        freeboard::compute_freeboard(segments, out.classes, out.sea_surface,
                                     config_->freeboard);
    out.segments = std::move(segments);
    return out;
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static core::PairDataset* pair_;
  static core::ShardSet* shards_;
  static serve::ShardIndex* index_;
  static resample::FeatureScaler* scaler_;
  static baseline::DecisionTree* tree_;
  static std::string dir_;
};

core::PipelineConfig* ServeCampaign::config_ = nullptr;
core::Campaign* ServeCampaign::campaign_ = nullptr;
core::PairDataset* ServeCampaign::pair_ = nullptr;
core::ShardSet* ServeCampaign::shards_ = nullptr;
serve::ShardIndex* ServeCampaign::index_ = nullptr;
resample::FeatureScaler* ServeCampaign::scaler_ = nullptr;
baseline::DecisionTree* ServeCampaign::tree_ = nullptr;
std::string ServeCampaign::dir_;

TEST_F(ServeCampaign, ShardIndexCoversStrongBeams) {
  // 3 strong beams x 2 chunks -> 3 servable (granule, beam) entries.
  EXPECT_EQ(index_->size(), 3u);
  for (const BeamId beam : {BeamId::Gt1r, BeamId::Gt2r, BeamId::Gt3r}) {
    const auto* files = index_->find(pair_->granule.id, beam);
    ASSERT_NE(files, nullptr);
    EXPECT_EQ(files->size(), 2u);
  }
  EXPECT_EQ(index_->find("nope", BeamId::Gt1r), nullptr);

  // Merging the chunks loses no photons vs the original full beam.
  const auto merged =
      serve::ShardIndex::load_merged(*index_->find(pair_->granule.id, BeamId::Gt1r));
  EXPECT_EQ(merged.beams[0].size(), pair_->granule.beam(BeamId::Gt1r).size());
  EXPECT_EQ(merged.id, pair_->granule.id);
}

TEST_F(ServeCampaign, ShardIndexBuildReadsMetadataOnly) {
  // Index construction must stay header-only: no full granule decode per
  // shard (h5::read_granule_meta, not h5::load_granule).
  const auto full_loads_before = h5::load_granule_call_count();
  const serve::ShardIndex rebuilt = serve::ShardIndex::build(shards_->files);
  EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);

  // The metadata-built index matches the one the suite serves from.
  EXPECT_EQ(rebuilt.size(), index_->size());
  for (const auto& [granule, beam] : index_->entries()) {
    const auto* files = rebuilt.find(granule, beam);
    ASSERT_NE(files, nullptr);
    EXPECT_EQ(*files, *index_->find(granule, beam));
  }
}

TEST_F(ServeCampaign, ColdBuildLatencyRepresentableInStageHistograms) {
  // Regression: fixed 0-500 ms bins put every ~790 ms cold build in the edge
  // bin. With log-scale bins the whole build (and every stage) must land
  // strictly inside the histogram range.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);
  ASSERT_NE(service->submit(request(BeamId::Gt1r)).get().product, nullptr);

  const auto m = service->metrics();
  std::vector<const obs::HistogramMetric::Snapshot*> stages = {&m.total, &m.load};
  for (const auto& stage : m.builder) stages.push_back(&stage);
  for (const auto* stage : stages) {
    if (stage->stats.count() == 0) continue;
    // p99 (here: the max) is representable, and the edge bins did not
    // swallow the distribution.
    EXPECT_LT(stage->stats.max(), obs::HistogramMetric::kMaxMs);
    EXPECT_EQ(stage->histogram.count(stage->histogram.bins() - 1), 0u);
    EXPECT_EQ(stage->histogram.total(), stage->stats.count());
  }
  EXPECT_EQ(m.total.stats.count(), 1u);
}

TEST_F(ServeCampaign, ServedProductMatchesBatchPipelineBitIdentically) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  auto service = make_service(cfg);

  const auto response =
      service->submit(request(BeamId::Gt1r, seasurface::Method::NasaEquation)).get();
  ASSERT_NE(response.product, nullptr);
  EXPECT_FALSE(response.from_cache);
  EXPECT_GT(response.service_ms, 0.0);

  const GranuleProduct reference =
      batch_reference(BeamId::Gt1r, seasurface::Method::NasaEquation);
  expect_bit_identical(*response.product, reference);

  // Per-stage latency histograms saw exactly one build.
  const auto m = service->metrics();
  EXPECT_EQ(m.total.stats.count(), 1u);
  EXPECT_EQ(m.load.stats.count(), 1u);
  for (const auto& stage : m.builder) EXPECT_EQ(stage.stats.count(), 1u);
  EXPECT_GT(m.inference_windows, 0u);
  EXPECT_GT(m.inference_batches, 1u);  // windows split into multiple batches
  EXPECT_EQ(m.total.histogram.total(), 1u);
}

TEST_F(ServeCampaign, SecondRequestServedFromCacheWithoutDispatch) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  auto service = make_service(cfg);
  const ProductRequest r = request(BeamId::Gt2r);

  const auto first = service->submit(r).get();
  ASSERT_NE(first.product, nullptr);
  const auto m1 = service->metrics();
  EXPECT_EQ(m1.scheduler.dispatched, 1u);
  EXPECT_EQ(m1.fast_hits, 0u);

  const auto second = service->submit(r).get();
  EXPECT_TRUE(second.from_cache);
  // Same resident object: bit-identical by construction, no copy, and the
  // hit/miss counters prove no inference re-ran.
  EXPECT_EQ(second.product.get(), first.product.get());

  const auto m2 = service->metrics();
  EXPECT_EQ(m2.scheduler.dispatched, 1u);  // unchanged: no new job
  EXPECT_EQ(m2.fast_hits, 1u);
  EXPECT_GE(m2.cache.hits, 1u);
  EXPECT_EQ(m2.inference_windows, m1.inference_windows);  // no extra inference
}

TEST_F(ServeCampaign, DifferentMethodIsADifferentCacheEntry) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);
  const auto nasa = service->submit(request(BeamId::Gt1r, seasurface::Method::NasaEquation));
  const auto minimum =
      service->submit(request(BeamId::Gt1r, seasurface::Method::MinElevation));
  ASSERT_NE(nasa.get().product, nullptr);
  ASSERT_NE(minimum.get().product, nullptr);
  EXPECT_EQ(service->metrics().scheduler.dispatched, 2u);
  EXPECT_EQ(service->metrics().cache.entries, 2u);
}

TEST_F(ServeCampaign, WarmViaEngineThenEverythingHits) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  auto service = make_service(cfg);

  std::vector<ProductRequest> all;
  for (const auto& [granule, beam] : index_->entries()) {
    ProductRequest r;
    r.granule_id = granule;
    r.beam = beam;
    all.push_back(r);
  }
  mapred::Engine engine({1, 2});
  EXPECT_EQ(service->warm(all, engine), all.size());
  EXPECT_EQ(service->warm(all, engine), 0u);  // idempotent

  for (const auto& r : all) {
    const auto response = service->submit(r).get();
    EXPECT_TRUE(response.from_cache);
    EXPECT_EQ(response.product->granule_id, r.granule_id);
    EXPECT_EQ(response.product->beam, r.beam);
  }
  const auto m = service->metrics();
  EXPECT_EQ(m.scheduler.dispatched, 0u);  // warm bypasses the queue entirely
  EXPECT_EQ(m.fast_hits, all.size());
}

TEST_F(ServeCampaign, WarmThenOneColdSubmitCountsOneRamMiss) {
  // submit() counts the RAM lookup; the scheduled build re-checks RAM with
  // a peek, so one request is one miss, and warm-up is none.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);
  mapred::Engine engine({1, 1});
  ASSERT_EQ(service->warm({request(BeamId::Gt1r)}, engine), 1u);
  EXPECT_EQ(service->metrics().cache.misses, 0u);
  EXPECT_EQ(service->submit(request(BeamId::Gt2r)).get().source, ServedFrom::build);
  const auto m = service->metrics();
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.hits, 0u);
  EXPECT_EQ(m.scheduler.dispatched, 1u);
}

TEST_F(ServeCampaign, PromotedPeerProductIsARamHitEvenWhenColder) {
  // The cluster's peer fetch: promote_ram inserts a product another node
  // built, then submit must answer it from RAM. The insert takes the
  // window, so it is resident however often the other entries were read.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_shards = 1;
  auto peer = make_service(cfg);
  const auto fetched = peer->submit(request(BeamId::Gt3r)).get().product;
  std::size_t two_products = 0;
  for (const BeamId beam : {BeamId::Gt1r, BeamId::Gt2r})
    two_products += peer->submit(request(beam)).get().product->approx_bytes();
  cfg.cache_bytes = two_products + two_products / 100;
  auto service = make_service(cfg);
  for (const BeamId beam : {BeamId::Gt1r, BeamId::Gt2r}) {
    ASSERT_EQ(service->submit(request(beam)).get().source, ServedFrom::build);
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(service->submit(request(beam)).get().source, ServedFrom::ram);
  }
  service->promote_ram(service->key_for(request(BeamId::Gt3r)), fetched);
  const ProductResponse response = service->submit(request(BeamId::Gt3r)).get();
  EXPECT_EQ(response.source, ServedFrom::ram);
  EXPECT_EQ(response.product, fetched);
  EXPECT_EQ(service->metrics().scheduler.dispatched, 2u);
}

TEST_F(ServeCampaign, ConcurrentMixedTrafficUnderEvictionPressure) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  cfg.cache_shards = 1;
  // Budget ~one product: repeat traffic keeps missing, so hits, misses and
  // evictions all race against each other.
  {
    auto probe = make_service(cfg);
    const auto r = probe->submit(request(BeamId::Gt1r)).get();
    cfg.cache_bytes = r.product->approx_bytes() + r.product->approx_bytes() / 2;
  }
  auto service = make_service(cfg);

  const BeamId beams[] = {BeamId::Gt1r, BeamId::Gt2r, BeamId::Gt3r};
  const seasurface::Method methods[] = {seasurface::Method::NasaEquation,
                                        seasurface::Method::MinElevation};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(1000 + c);
      for (int i = 0; i < 8; ++i) {
        const auto r = request(beams[rng.next() % 3], methods[rng.next() % 2]);
        const auto response = service->submit(r).get();
        if (!response.product || response.product->beam != r.beam) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto m = service->metrics();
  EXPECT_EQ(m.requests, 32u);
  EXPECT_GT(m.cache.evictions, 0u);  // the pressure was real
  EXPECT_LE(m.cache.bytes, cfg.cache_bytes);
  // Every request was answered by a fast hit, a coalesced attach, or a build.
  EXPECT_GE(m.fast_hits + m.scheduler.coalesced + m.scheduler.dispatched, 32u);
}

TEST_F(ServeCampaign, DiskTierBitIdenticalAcrossRamHitDiskHitAndRebuild) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.disk_cache_dir = dir_ + "/disk_tier";
  ProductRequest r = request(BeamId::Gt1r);
  r.priority = Priority::interactive;

  GranuleProduct rebuilt;
  {
    auto service = make_service(cfg);
    const auto cold = service->submit(r).get();
    ASSERT_NE(cold.product, nullptr);
    EXPECT_EQ(cold.source, ServedFrom::build);
    EXPECT_FALSE(cold.from_cache);
    rebuilt = *cold.product;

    const auto ram = service->submit(r).get();  // RAM tier
    EXPECT_EQ(ram.source, ServedFrom::ram);
    EXPECT_TRUE(ram.from_cache);
    expect_bit_identical(*ram.product, rebuilt);

    service->wait_disk_writebacks();
    const auto m = service->metrics();
    EXPECT_EQ(m.disk.writes, 1u);
    EXPECT_EQ(m.writeback_failures, 0u);
    EXPECT_EQ(m.by_class[static_cast<std::size_t>(Priority::interactive)].requests, 2u);
    EXPECT_EQ(m.by_class[static_cast<std::size_t>(Priority::interactive)].latency.stats.count(),
              2u);
  }

  // "Restart": a fresh service over the same directory, RAM tier cold. The
  // disk hit must not touch the shards (no full granule decode) and must be
  // bit-identical to both the rebuild and the batch pipeline.
  {
    auto service = make_service(cfg);
    const auto full_loads_before = h5::load_granule_call_count();
    const auto disk = service->submit(r).get();
    ASSERT_NE(disk.product, nullptr);
    EXPECT_EQ(disk.source, ServedFrom::disk);
    EXPECT_TRUE(disk.from_cache);
    EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // no shard IO
    expect_bit_identical(*disk.product, rebuilt);
    expect_bit_identical(*disk.product,
                         batch_reference(BeamId::Gt1r, seasurface::Method::NasaEquation));

    // The disk hit promoted the product into RAM: the next hit is tier 1.
    const auto ram = service->submit(r).get();
    EXPECT_EQ(ram.source, ServedFrom::ram);
    EXPECT_EQ(ram.product.get(), disk.product.get());

    const auto m = service->metrics();
    EXPECT_EQ(m.disk.hits, 1u);
    EXPECT_EQ(m.disk_load.stats.count(), 1u);
    EXPECT_EQ(m.total.stats.count(), 0u);  // no cold build ever ran here
  }
}

TEST_F(ServeCampaign, DiskTierConfigChangeIsColdNotStale) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/disk_stale";
  const ProductRequest r = request(BeamId::Gt2r);
  {
    auto service = make_service(cfg);
    ASSERT_NE(service->submit(r).get().product, nullptr);
    service->wait_disk_writebacks();
  }
  // Same directory, bumped model version: the persisted product's key no
  // longer matches, so the service must rebuild rather than serve stale.
  cfg.model_version = 1;
  auto service = make_service(cfg);
  const auto response = service->submit(r).get();
  ASSERT_NE(response.product, nullptr);
  EXPECT_EQ(response.source, ServedFrom::build);
  const auto m = service->metrics();
  EXPECT_EQ(m.disk.hits, 0u);
  EXPECT_GE(m.disk.misses, 1u);
  EXPECT_EQ(m.total.stats.count(), 1u);
}

TEST_F(ServeCampaign, KindAndBackendAreDistinctCacheEntries) {
  // All three ProductKinds and both backends flow through the same submit
  // API; every (kind, backend) combination is its own cache identity.
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  auto service = make_service_with_tree(cfg);

  ProductRequest fb_nn = request(BeamId::Gt1r);
  ProductRequest cls_nn = fb_nn;
  cls_nn.kind = pipeline::ProductKind::classification;
  ProductRequest ss_nn = fb_nn;
  ss_nn.kind = pipeline::ProductKind::seasurface;
  ProductRequest fb_tree = fb_nn;
  fb_tree.backend = pipeline::Backend::decision_tree;

  const auto k_fb = service->key_for(fb_nn);
  const auto k_cls = service->key_for(cls_nn);
  const auto k_tree = service->key_for(fb_tree);
  EXPECT_FALSE(k_fb == k_cls);
  EXPECT_FALSE(k_fb == k_tree);
  EXPECT_EQ(k_fb.kind, pipeline::ProductKind::freeboard);
  EXPECT_EQ(k_cls.kind, pipeline::ProductKind::classification);
  EXPECT_EQ(k_tree.backend, pipeline::Backend::decision_tree);
  EXPECT_NE(k_fb.config_hash, k_tree.config_hash);  // backend identity in the hash
  // Prefix-scoped fingerprints: the classification key ignores the
  // seasurface/freeboard config *and* the method entirely, so one cached
  // classification product serves resume for every method.
  EXPECT_NE(k_fb.config_hash, k_cls.config_hash);
  ProductRequest cls_other_method = cls_nn;
  cls_other_method.method = seasurface::Method::MinElevation;
  EXPECT_TRUE(service->key_for(cls_other_method) == k_cls);

  const auto cls = service->submit(cls_nn).get();
  ASSERT_NE(cls.product, nullptr);
  EXPECT_EQ(cls.product->kind, pipeline::ProductKind::classification);
  EXPECT_GT(cls.product->classes.size(), 0u);
  EXPECT_EQ(cls.product->freeboard.points.size(), 0u);  // shallow kind stops early
  EXPECT_EQ(cls.product->sea_surface.points().size(), 0u);

  const auto ss = service->submit(ss_nn).get();
  ASSERT_NE(ss.product, nullptr);
  EXPECT_EQ(ss.product->kind, pipeline::ProductKind::seasurface);
  EXPECT_GT(ss.product->sea_surface.points().size(), 0u);
  EXPECT_EQ(ss.product->freeboard.points.size(), 0u);

  const auto fb = service->submit(fb_nn).get();
  ASSERT_NE(fb.product, nullptr);
  EXPECT_GT(fb.product->freeboard.points.size(), 0u);

  const auto tree_fb = service->submit(fb_tree).get();
  ASSERT_NE(tree_fb.product, nullptr);
  EXPECT_GT(tree_fb.product->freeboard.points.size(), 0u);
  // Different classifier, different classes on this beam.
  EXPECT_NE(tree_fb.product->classes, fb.product->classes);

  const auto m = service->metrics();
  EXPECT_EQ(m.cache.entries, 4u);  // four distinct products resident
  // The nn classify stage ran for cls (the deeper nn kinds resumed from it);
  // the tree build never touched the nn backend.
  EXPECT_GT(m.inference_windows, 0u);
}

TEST_F(ServeCampaign, TreeBackendWithoutFactoryIsRejected) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);  // no TreeFactory
  ProductRequest r = request(BeamId::Gt1r);
  r.backend = pipeline::Backend::decision_tree;
  EXPECT_THROW(service->submit(r), std::invalid_argument);
}

TEST_F(ServeCampaign, DeeperKindResumesFromShallowerRamEntry) {
  // A freeboard request over a cached classification product must not
  // re-run load/features/inference — only seasurface + freeboard.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);

  ProductRequest cls = request(BeamId::Gt1r);
  cls.kind = pipeline::ProductKind::classification;
  ASSERT_NE(service->submit(cls).get().product, nullptr);
  const auto m1 = service->metrics();
  EXPECT_EQ(m1.resumed_builds, 0u);
  const auto windows_after_cls = m1.inference_windows;
  EXPECT_GT(windows_after_cls, 0u);

  const auto full_loads_before = h5::load_granule_call_count();
  const auto fb = service->submit(request(BeamId::Gt1r)).get();
  ASSERT_NE(fb.product, nullptr);
  EXPECT_EQ(fb.source, ServedFrom::build);  // a build, but a resumed one
  EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // no shard IO

  const auto m2 = service->metrics();
  EXPECT_EQ(m2.resumed_builds, 1u);
  EXPECT_EQ(m2.inference_windows, windows_after_cls);  // no inference re-ran
  EXPECT_EQ(m2.load.stats.count(), 1u);                // only the cls build loaded
  // One sample per stage: the classification build ran preprocess through
  // classify, the resumed build only seasurface + freeboard. Both builds
  // count in `total`.
  for (std::size_t s = 0; s < pipeline::kNumStages; ++s)
    EXPECT_EQ(m2.builder[s].stats.count(), 1u)
        << pipeline::stage_name(static_cast<pipeline::StageId>(s));
  EXPECT_EQ(m2.total.stats.count(), 2u);

  // Bit-identical to the batch pipeline's full freeboard product.
  expect_bit_identical(*fb.product,
                       batch_reference(BeamId::Gt1r, seasurface::Method::NasaEquation));
}

TEST_F(ServeCampaign, ResumeFiresAcrossSeaSurfaceMethods) {
  // The classification prefix consumes no sea-surface input, so a freeboard
  // request with a *different* method must still resume from the cached
  // classification product instead of re-running shard IO + inference.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);

  ProductRequest cls = request(BeamId::Gt1r, seasurface::Method::NasaEquation);
  cls.kind = pipeline::ProductKind::classification;
  ASSERT_NE(service->submit(cls).get().product, nullptr);
  const auto windows_after_cls = service->metrics().inference_windows;

  const auto full_loads_before = h5::load_granule_call_count();
  const auto fb =
      service->submit(request(BeamId::Gt1r, seasurface::Method::MinElevation)).get();
  ASSERT_NE(fb.product, nullptr);
  EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // no shard IO

  const auto m = service->metrics();
  EXPECT_EQ(m.resumed_builds, 1u);
  EXPECT_EQ(m.inference_windows, windows_after_cls);  // no inference re-ran
  expect_bit_identical(*fb.product,
                       batch_reference(BeamId::Gt1r, seasurface::Method::MinElevation));
}

TEST_F(ServeCampaign, ClassificationDiskHitSeedsFreeboardBuildAcrossRestart) {
  // The acceptance path: a classification-kind disk hit without shard IO,
  // and a freeboard-kind build that resumes from it.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/disk_kinds";
  ProductRequest cls = request(BeamId::Gt2r);
  cls.kind = pipeline::ProductKind::classification;
  {
    auto service = make_service(cfg);
    ASSERT_NE(service->submit(cls).get().product, nullptr);
    service->wait_disk_writebacks();
    EXPECT_EQ(service->metrics().disk.writes, 1u);
  }

  // Fresh service over the same directory: RAM empty, disk warm with the
  // classification product only.
  auto service = make_service(cfg);
  const auto full_loads_before = h5::load_granule_call_count();

  const auto disk_hit = service->submit(cls).get();
  ASSERT_NE(disk_hit.product, nullptr);
  EXPECT_EQ(disk_hit.source, ServedFrom::disk);
  EXPECT_EQ(disk_hit.product->kind, pipeline::ProductKind::classification);
  EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // no shard IO

  const auto fb = service->submit(request(BeamId::Gt2r)).get();
  ASSERT_NE(fb.product, nullptr);
  EXPECT_EQ(fb.source, ServedFrom::build);
  EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // resumed: still none

  const auto m = service->metrics();
  EXPECT_EQ(m.resumed_builds, 1u);
  EXPECT_EQ(m.inference_windows, 0u);  // this service never ran the classifier
  expect_bit_identical(*fb.product,
                       batch_reference(BeamId::Gt2r, seasurface::Method::NasaEquation));
}

TEST_F(ServeCampaign, SiblingOnDiskSeedsEveryKindAndMethodAcrossRestart) {
  // A restarted service whose disk tier holds one beam's MinElevation
  // freeboard product only. Every other product of that beam — another
  // method's freeboard and seasurface, the classification — carries the
  // same classification prefix, so each resumes from a sibling: no shard
  // IO, no inference, bit-identical to the from-shards product.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/disk_sibling";
  const ProductRequest min_fb = request(BeamId::Gt3r, seasurface::Method::MinElevation);
  {
    auto service = make_service(cfg);
    ASSERT_NE(service->submit(min_fb).get().product, nullptr);
    service->wait_disk_writebacks();
    EXPECT_EQ(service->metrics().disk.writes, 1u);
  }

  const GranuleProduct fb_ref = batch_reference(BeamId::Gt3r, seasurface::Method::NasaEquation);
  GranuleProduct ss_ref = fb_ref;
  ss_ref.freeboard = {};
  GranuleProduct cls_ref = ss_ref;
  cls_ref.sea_surface = {};

  ProductRequest nasa_fb = request(BeamId::Gt3r, seasurface::Method::NasaEquation);
  ProductRequest nasa_ss = nasa_fb;
  nasa_ss.kind = pipeline::ProductKind::seasurface;
  ProductRequest cls = nasa_fb;
  cls.kind = pipeline::ProductKind::classification;
  const std::pair<ProductRequest, const GranuleProduct*> cases[] = {
      {nasa_fb, &fb_ref}, {nasa_ss, &ss_ref}, {cls, &cls_ref}};

  auto service = make_service(cfg);
  const auto full_loads_before = h5::load_granule_call_count();
  std::uint64_t resumed = 0;
  for (const auto& [r, reference] : cases) {
    SCOPED_TRACE(pipeline::product_kind_name(r.kind));
    const auto response = service->submit(r).get();
    ASSERT_NE(response.product, nullptr);
    EXPECT_EQ(response.source, ServedFrom::build);  // a build, but a resumed one
    EXPECT_EQ(response.product->kind, r.kind);
    EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // no shard IO
    const auto m = service->metrics();
    EXPECT_EQ(m.inference_windows, 0u);
    EXPECT_EQ(m.resumed_builds, ++resumed);
    expect_bit_identical(*response.product, *reference);
  }

  const auto m = service->metrics();
  EXPECT_EQ(m.load.stats.count(), 0u);  // no from-shards build ran
  // Sibling probes are speculative: the disk tier counted only the three
  // requests' own misses, and the disk sibling was not promoted to RAM.
  EXPECT_EQ(m.disk.hits, 0u);
  EXPECT_EQ(m.disk.misses, 3u);
  EXPECT_EQ(service->peek_ram(service->key_for(min_fb)), nullptr);
  EXPECT_EQ(m.cache.entries, 3u);

  // The first build found the sibling on disk, the next two in RAM (the
  // NasaEquation products just built); all three count as seed="sibling".
  const auto snap = service->obs_snapshot();
  const auto resumed_by = [&snap](const char* seed) {
    for (const obs::MetricPoint& p : snap.points)
      if (p.name == "is2_serve_resumed_builds_total" &&
          p.labels == obs::Labels{{"seed", seed}})
        return p.value;
    ADD_FAILURE() << "no is2_serve_resumed_builds_total{seed=\"" << seed << "\"}";
    return -1.0;
  };
  EXPECT_EQ(resumed_by("sibling"), 3.0);
  EXPECT_EQ(resumed_by("shallower"), 0.0);
}

TEST_F(ServeCampaign, DiskBudgetKeepsEachBeamsLastProductAsASeed) {
  // Warm-up writes one freeboard product per beam, Gt3r's oldest. The
  // restarted service's disk budget holds those three files and half of
  // another, so each new product evicts one. Plain LRU would evict Gt3r's
  // only product for the first new Gt1r product, and the next Gt3r miss
  // would rebuild from the shards. Kept as Gt3r's seed, it resumes.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/disk_seed";
  std::vector<std::string> warm_paths;  // oldest first
  {
    auto service = make_service(cfg);
    for (const BeamId beam : {BeamId::Gt3r, BeamId::Gt2r, BeamId::Gt1r}) {
      ASSERT_NE(service->submit(request(beam)).get().product, nullptr);
      warm_paths.push_back(cfg.disk_cache_dir + "/" +
                           DiskCache::filename_for(service->key_for(request(beam))));
    }
    service->wait_disk_writebacks();
    const std::size_t warm_bytes = service->metrics().disk.bytes;
    cfg.disk_cache_bytes = warm_bytes + warm_bytes / 6;
  }
  const auto now = std::filesystem::file_time_type::clock::now();
  for (std::size_t i = 0; i < warm_paths.size(); ++i)
    std::filesystem::last_write_time(
        warm_paths[i], now - std::chrono::minutes(static_cast<int>(warm_paths.size() - i)));

  const ProductRequest traffic[] = {request(BeamId::Gt1r, seasurface::Method::MinElevation),
                                    request(BeamId::Gt3r, seasurface::Method::MinElevation)};
  std::vector<GranuleProduct> references;  // before the count: they read shards
  for (const ProductRequest& r : traffic) references.push_back(batch_reference(r.beam, r.method));

  auto service = make_service(cfg);
  const auto full_loads_before = h5::load_granule_call_count();
  for (std::size_t i = 0; i < std::size(traffic); ++i) {
    SCOPED_TRACE(atl03::beam_name(traffic[i].beam));
    const auto response = service->submit(traffic[i]).get();
    ASSERT_NE(response.product, nullptr);
    EXPECT_EQ(response.source, ServedFrom::build);
    expect_bit_identical(*response.product, references[i]);
    service->wait_disk_writebacks();  // publish (and evict) before the next miss
  }
  EXPECT_EQ(h5::load_granule_call_count(), full_loads_before);  // no shard IO

  const auto m = service->metrics();
  EXPECT_EQ(m.inference_windows, 0u);  // no window classified after warm-up
  EXPECT_EQ(m.resumed_builds, 2u);
  EXPECT_EQ(m.load.stats.count(), 0u);
  EXPECT_EQ(m.disk.evictions, 2u);  // Gt1r's warm product, then Gt2r's
  // Gt2r's product was spared once for the Gt1r publish and never read, so
  // it went on its second pass: the one seed eviction.
  EXPECT_EQ(m.disk.seed_evictions, 1u);
}

TEST_F(ServeCampaign, SiblingOfAnotherBackendIsNotASeed) {
  // Products of one beam share a classification prefix only under one
  // classifier: a decision-tree request next to a cached nn product of the
  // same beam must build from the shards.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service_with_tree(cfg);
  ASSERT_NE(service->submit(request(BeamId::Gt1r)).get().product, nullptr);

  ProductRequest tree_cls = request(BeamId::Gt1r);
  tree_cls.kind = pipeline::ProductKind::classification;
  tree_cls.backend = pipeline::Backend::decision_tree;
  const auto full_loads_before = h5::load_granule_call_count();
  const auto response = service->submit(tree_cls).get();
  ASSERT_NE(response.product, nullptr);
  EXPECT_EQ(response.source, ServedFrom::build);
  EXPECT_GT(h5::load_granule_call_count(), full_loads_before);  // shard IO ran

  const auto m = service->metrics();
  EXPECT_EQ(m.resumed_builds, 0u);
  EXPECT_EQ(m.load.stats.count(), 2u);
}

TEST_F(ServeCampaign, SiblingUnderAnotherClassificationPrefixIsNotASeed) {
  // A disk tier filled under one segmenter window, read by a service whose
  // config changes the classification prefix: the old products are never
  // siblings, so the request builds from the shards.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/disk_sibling_prefix";
  {
    auto service = make_service(cfg);
    ASSERT_NE(service->submit(request(BeamId::Gt2r, seasurface::Method::MinElevation))
                  .get()
                  .product,
              nullptr);
    service->wait_disk_writebacks();
    EXPECT_EQ(service->metrics().disk.writes, 1u);
  }

  core::PipelineConfig changed = *config_;
  changed.segmenter.window_m *= 2.0;
  serve::GranuleService service(cfg, changed, campaign_->corrections(), *index_,
                                &ServeCampaign::make_model, *scaler_);
  const auto full_loads_before = h5::load_granule_call_count();
  const auto response = service.submit(request(BeamId::Gt2r)).get();
  ASSERT_NE(response.product, nullptr);
  EXPECT_EQ(response.source, ServedFrom::build);
  EXPECT_GT(h5::load_granule_call_count(), full_loads_before);  // shard IO ran

  const auto m = service.metrics();
  EXPECT_EQ(m.resumed_builds, 0u);
  EXPECT_EQ(m.load.stats.count(), 1u);
  EXPECT_GT(m.inference_windows, 0u);
}

TEST_F(ServeCampaign, OldKeyLayoutDiskFileIsRejectedAfterFormatBump) {
  // A v1-era cache file (key block without kind/backend) must never be
  // served: the startup scan deletes it as stale and the first request
  // rebuilds from shards.
  const std::string disk_dir = dir_ + "/disk_v1";
  std::filesystem::create_directories(disk_dir);

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = disk_dir;
  ProductRequest r = request(BeamId::Gt3r);
  const ProductKey key = [&] {
    auto probe = make_service(cfg);
    return probe->key_for(r);
  }();
  std::filesystem::remove_all(disk_dir);  // drop anything the probe wrote
  std::filesystem::create_directories(disk_dir);

  // Hand-craft the old (v1) layout at the key's deterministic path:
  //   magic | u32 version=1 | u64 config_hash | u8 beam | str granule_id
  //   | u64 payload_bytes | payload | u32 crc32(payload)
  h5::ByteWriter payload;
  payload.raw(std::uint64_t{0});  // 0 segments
  payload.raw(std::uint64_t{0});  // 0 classes
  payload.raw(std::uint64_t{0});  // 0 surface points
  payload.raw(std::uint64_t{0});  // 0 freeboard points
  h5::ByteWriter v1;
  const char magic[4] = {'I', 'S', '2', 'P'};
  v1.bytes(reinterpret_cast<const std::uint8_t*>(magic), 4);
  v1.raw(std::uint32_t{1});  // the pre-stage-graph format version
  v1.raw(key.config_hash);
  v1.raw(static_cast<std::uint8_t>(key.beam));
  v1.str(key.granule_id);
  v1.raw(static_cast<std::uint64_t>(payload.written().size()));
  v1.bytes(payload.written().data(), payload.written().size());
  v1.raw(h5::crc32(payload.written()));
  const std::string path =
      (std::filesystem::path(disk_dir) / DiskCache::filename_for(key)).string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(v1.written().data()),
              static_cast<std::streamsize>(v1.written().size()));
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  auto service = make_service(cfg);
  EXPECT_FALSE(std::filesystem::exists(path));  // dropped at startup scan
  EXPECT_GE(service->metrics().disk.corrupt_dropped, 1u);

  const auto response = service->submit(r).get();
  ASSERT_NE(response.product, nullptr);
  EXPECT_EQ(response.source, ServedFrom::build);  // rebuilt, never served stale
  expect_bit_identical(*response.product,
                       batch_reference(BeamId::Gt3r, seasurface::Method::NasaEquation));
}

TEST_F(ServeCampaign, WritebackBacklogIsBoundedAndSkippedKeysRebuild) {
  // A second copy of the granule under its own id doubles the servable
  // beams: 2 granules x 3 beams x 2 backends x 9 (kind, method) keys = 108
  // distinct builds, more than the write-back backlog holds.
  const std::string root = dir_ + "/backlog";
  std::filesystem::create_directories(root + "/shards");
  core::ShardSet shards = *shards_;
  atl03::Granule twin = pair_->granule;
  twin.id += "-twin";
  core::write_shards(twin, 0, /*chunks_per_beam=*/2, root + "/shards", shards);
  const serve::ShardIndex index = serve::ShardIndex::build(shards.files);
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.disk_cache_dir = root + "/disk";
  const auto make = [&] {
    return std::make_unique<serve::GranuleService>(
        cfg, *config_, campaign_->corrections(), index, &ServeCampaign::make_model, *scaler_,
        [] { return *tree_; });
  };

  std::vector<ProductRequest> requests;
  for (const std::string& id : {pair_->granule.id, twin.id})
    for (const BeamId beam : {BeamId::Gt1r, BeamId::Gt2r, BeamId::Gt3r})
      for (const auto backend : {pipeline::Backend::nn, pipeline::Backend::decision_tree}) {
        ProductRequest r = request(beam);
        r.granule_id = id;
        r.backend = backend;
        r.kind = pipeline::ProductKind::classification;
        requests.push_back(r);
        for (std::size_t m = 0; m < seasurface::kMethods; ++m)
          for (const auto kind :
               {pipeline::ProductKind::seasurface, pipeline::ProductKind::freeboard}) {
            r.method = static_cast<seasurface::Method>(m);
            r.kind = kind;
            requests.push_back(r);
          }
      }
  ASSERT_GT(requests.size(), serve::GranuleService::kMaxPendingWritebacks);

  // Every disk write sleeps while the plan is armed, so the builds outrun
  // the write-back thread and the backlog fills. Disarming lets the queued
  // write-backs land at disk speed. The plan outlives the service's writes.
  util::fault::Plan plan(31);
  util::fault::SiteConfig slow_disk;
  slow_disk.latency_ms = 2000.0;
  plan.on("disk.write", slow_disk);
  std::vector<std::shared_ptr<const GranuleProduct>> built;
  std::uint64_t written = 0, skipped = 0;
  {
    auto service = make();
    {
      util::fault::Armed armed(plan);
      for (const ProductRequest& r : requests) {
        const ProductResponse response = service->submit(r).get();
        ASSERT_NE(response.product, nullptr);
        EXPECT_EQ(response.source, ServedFrom::build);
        built.push_back(response.product);
      }
    }
    service->wait_disk_writebacks();
    const auto m = service->metrics();
    EXPECT_GT(m.writeback_skipped, 0u);
    EXPECT_EQ(m.disk.writes + m.writeback_skipped, requests.size());
    EXPECT_EQ(m.writeback_failures, 0u);
    written = m.disk.writes;
    skipped = m.writeback_skipped;
    const auto snap = service->obs_snapshot();
    bool pending_exported = false;
    for (const obs::MetricPoint& p : snap.points)
      if (p.name == "is2_serve_writeback_pending") {
        pending_exported = true;
        EXPECT_EQ(p.value, 0.0);
      }
    EXPECT_TRUE(pending_exported);
  }

  // Restart over the same disk tier: every written key is a disk hit, every
  // skipped key rebuilds, and each answer equals the first service's.
  auto service = make();
  std::uint64_t rebuilt = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ProductResponse response = service->submit(requests[i]).get();
    ASSERT_NE(response.product, nullptr);
    rebuilt += response.source == ServedFrom::build;
    expect_bit_identical(*response.product, *built[i]);
  }
  service->wait_disk_writebacks();
  const auto m = service->metrics();
  EXPECT_EQ(m.disk.hits, written);
  EXPECT_EQ(rebuilt, skipped);
  EXPECT_EQ(m.writeback_skipped, 0u);
}

TEST_F(ServeCampaign, UnknownGranuleYieldsBrokenFuture) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);
  ProductRequest r;
  r.granule_id = "ATL03_does_not_exist";
  auto f = service->submit(r);
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST_F(ServeCampaign, ParallelInferenceIsBitIdenticalToSerial) {
  // Batch-level inference parallelism (inference_threads > 0) fans one
  // granule's windows over a ThreadPool in batch-aligned spans; windows are
  // row-independent, so the partition must not change a single prediction.
  serve::ServiceConfig serial_cfg;
  serial_cfg.workers = 1;
  serve::ServiceConfig par_cfg;
  par_cfg.workers = 1;
  par_cfg.inference_threads = 3;
  par_cfg.inference_batch_windows = 64;  // several spans even on tiny beams
  auto serial_svc = make_service(serial_cfg);
  auto par_svc = make_service(par_cfg);
  for (const BeamId beam : {BeamId::Gt1r, BeamId::Gt2r}) {
    const auto a = serial_svc->submit(request(beam)).get();
    const auto b = par_svc->submit(request(beam)).get();
    ASSERT_NE(a.product, nullptr);
    ASSERT_NE(b.product, nullptr);
    expect_bit_identical(*a.product, *b.product);
  }
  const auto m = par_svc->metrics();
  EXPECT_GT(m.inference_batches, 2u);  // really did run multiple spans' batches
}

// ---------------------------------------------------------------------------
// DiskCache concurrency (the mutex-held-across-file-IO fix)
// ---------------------------------------------------------------------------

TEST_F(DiskCacheTest, SlowReadDoesNotSerializeOtherKeys) {
  DiskCache cache({dir_, 64u << 20});
  const GranuleProduct p1 = rich_product(1), p2 = rich_product(2);
  const ProductKey k1 = rich_key(1), k2 = rich_key(2);
  cache.put(k1, p1);
  cache.put(k2, p2);

  // Reader A parks inside get(k1) between the unlocked file read and the
  // manifest re-lock; reader B's get(k2) must complete while A is parked —
  // impossible before the snapshot-then-read fix, which held the manifest
  // mutex across the whole read.
  std::promise<void> entered;
  auto entered_f = entered.get_future();
  std::promise<void> release;
  auto release_f = release.get_future().share();
  std::atomic<bool> k1_seen{false};
  cache.set_read_hook_for_tests([&](const ProductKey& key) {
    if (key == k1 && !k1_seen.exchange(true)) {
      entered.set_value();
      release_f.wait();
    }
  });

  std::thread reader_a([&] {
    const auto got = cache.get(k1);
    ASSERT_NE(got, nullptr);
    expect_product_equal(*got, p1);
  });
  ASSERT_EQ(entered_f.wait_for(std::chrono::seconds(10)), std::future_status::ready);

  // A is parked mid-get(k1). This get(k2) must finish on its own.
  const auto got2 = cache.get(k2);
  ASSERT_NE(got2, nullptr);
  expect_product_equal(*got2, p2);

  release.set_value();
  reader_a.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST_F(DiskCacheTest, ConcurrentGetPutStressServesOnlyValidProducts) {
  DiskCache cache({dir_, 64u << 20});
  constexpr int kKeys = 6;
  std::vector<GranuleProduct> products;
  std::vector<ProductKey> keys;
  for (int k = 0; k < kKeys; ++k) {
    products.push_back(rich_product(static_cast<std::uint64_t>(k)));
    keys.push_back(rich_key(static_cast<std::uint64_t>(k)));
  }
  // Seed half the keys so early gets see a mix of hits and misses.
  for (int k = 0; k < kKeys; k += 2) cache.put(keys[static_cast<std::size_t>(k)],
                                               products[static_cast<std::size_t>(k)]);

  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 60; ++i) {
        const auto k = static_cast<std::size_t>(rng.next() % kKeys);
        if (rng.uniform() < 0.3) {
          cache.put(keys[k], products[k]);
        } else if (auto got = cache.get(keys[k])) {
          // Whatever was served must be the product for that key, intact.
          EXPECT_EQ(got->segments.size(), products[k].segments.size());
          EXPECT_EQ(got->classes, products[k].classes);
          served.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(served.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.corrupt_dropped, 0u);
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kKeys));
}

}  // namespace
