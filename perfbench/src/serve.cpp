// serve_zipf: a closed loop of 2 client threads against a 2-worker
// `serve::GranuleService`. A key is granule × strong beam × kind ×
// sea-surface method, and keys have Zipf popularity over that whole
// universe. Each client takes the next key from its shuffled deck, submits
// it and waits for the product before sending again. The RAM and disk tiers
// are budgeted below the working set, so the hottest keys hit RAM, the next
// ones hit disk, and the tail rebuilds — fully, or resumed from a cached
// classification or sea surface.
//
// Traced, every request gets a span tagged with where its product came from
// and how long it queued; afterwards each distinct key that was built in the
// traced window is replayed once through the public calls a cold build is
// made of (shard merge, builder stages, NnBackend::classify, disk put/get),
// one span per call.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "mapred/engine.hpp"
#include "pipeline/classifier.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perf {

using namespace is2;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr int kSetupReps = 3;

/// Zipf exponent of key popularity: the repository's serving load
/// generator's default (bench/loadgen.hpp, LoadgenConfig::zipf_s).
constexpr double kZipfS = 1.1;
/// Tier budgets in products of the universe's mean size (the universe holds
/// 24 beams × 9 products = 216): the RAM tier holds the hottest products
/// (about a third of requests), disk the next ones (about half), and the
/// rest rebuild — so the median request is a disk hit and the p99 a full
/// build.
constexpr double kRamProducts = 8;
constexpr double kDiskProducts = 100;
/// Each client walks a shuffled deck holding every key in proportion to its
/// popularity (the least popular key once), reshuffled when used up: exact
/// frequencies, random order.
constexpr std::size_t kDeckSize = 2000;

/// The key universe: every (granule, beam, kind, method) the service can
/// serve — per beam the classification (method-agnostic) and the sea
/// surface and freeboard under each method — in popularity-rank order,
/// with each key's reference product hash and resident size.
struct Universe {
  std::vector<serve::ProductRequest> requests;  ///< index = popularity rank
  std::vector<std::string> labels;
  std::vector<std::uint64_t> ref_hash;
  std::vector<double> bytes;
  std::vector<std::size_t> deck;  ///< key indices, each repeated by popularity
  double mean_bytes = 0.0;        ///< mean resident size of one product
};

Universe make_universe(const serve::ShardIndex& index, const std::string& dir) {
  const KeyValues refs = load_kv(dir + "/serve_reference.txt");
  std::vector<serve::ProductRequest> keys;
  for (const auto& [granule, beam] : index.entries()) {
    serve::ProductRequest req;
    req.granule_id = granule;
    req.beam = beam;
    req.kind = pipeline::ProductKind::classification;
    keys.push_back(req);
    for (const auto kind : {pipeline::ProductKind::seasurface, pipeline::ProductKind::freeboard})
      for (int m = 0; m < kSeaSurfaceMethods; ++m) {
        req.kind = kind;
        req.method = static_cast<seasurface::Method>(m);
        keys.push_back(req);
      }
  }
  // Popularity ranks are part of the workload, the same for every seed (the
  // keys' build costs differ, so a seeded ranking would change the work);
  // the seed draws the request order.
  util::Rng rng(0x21B);
  rng.shuffle(keys);  // keys[r] has popularity rank r
  double zipf_total = 0.0;
  for (std::size_t r = 0; r < keys.size(); ++r)
    zipf_total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);

  Universe u;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    const serve::ProductRequest& req = keys[r];
    const bool classification = req.kind == pipeline::ProductKind::classification;
    const std::string label =
        serve_key_label(req.granule_id, static_cast<int>(req.beam), static_cast<int>(req.kind),
                        classification ? -1 : static_cast<int>(req.method));
    const std::string& ref = refs.at(label);
    const std::size_t comma = ref.find(',');
    const double share = 1.0 / std::pow(static_cast<double>(r + 1), kZipfS) / zipf_total;
    u.deck.insert(u.deck.end(), static_cast<std::size_t>(std::lround(share * kDeckSize)), r);
    u.requests.push_back(req);
    u.labels.push_back(label);
    u.ref_hash.push_back(std::stoull(ref.substr(0, comma)));
    u.bytes.push_back(std::stod(ref.substr(comma + 1)));
    u.mean_bytes += u.bytes.back();
  }
  u.mean_bytes /= static_cast<double>(u.requests.size());
  return u;
}

/// The set-up's warm-up requests: the most popular keys that fit the disk
/// tier together, least popular first, so the hottest end up in RAM. The
/// list depends on nothing but the universe, so every seed and every set-up
/// repetition does the same warm-up work.
std::vector<serve::ProductRequest> warmup_requests(const Universe& u, double disk_bytes) {
  std::size_t n = 0;
  for (double used = 0.0; n < u.requests.size() && used + u.bytes[n] <= disk_bytes; ++n)
    used += u.bytes[n];
  std::vector<serve::ProductRequest> out(u.requests.begin(),
                                         u.requests.begin() + static_cast<std::ptrdiff_t>(n));
  std::reverse(out.begin(), out.end());
  return out;
}

/// One client's request stream: walks a private shuffled copy of the deck.
class RequestStream {
 public:
  RequestStream(const Universe& u, std::uint64_t seed) : deck_(u.deck), rng_(seed) {}

  std::size_t next() {
    if (pos_ == deck_.size()) {
      rng_.shuffle(deck_);
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  std::vector<std::size_t> deck_;
  util::Rng rng_;
  std::size_t pos_ = deck_.size();
};

/// Checks every response against its key's reference product. A product
/// object is hashed in full the first time it is served for a key; a later
/// response carrying that same live object (a RAM hit) is matched by
/// identity. `seen_` holds weak references: a match needs the hashed object
/// itself to be alive, so a new product at a reused address is hashed
/// again. A RAM hit costs the client a pointer compare instead of a hash of
/// the whole product.
class Verifier {
 public:
  explicit Verifier(const Universe& u) : u_(u), seen_(u.requests.size()) {}

  bool check(std::size_t k, const serve::ProductResponse& resp, std::string* why) {
    const std::shared_ptr<const serve::GranuleProduct>& p = resp.product;
    const serve::ProductRequest& req = u_.requests[k];
    if (!p) {
      *why = "empty product";
      return false;
    }
    if (p->granule_id != req.granule_id || p->beam != req.beam || p->kind != req.kind) {
      *why = "product identity differs from key " + u_.labels[k];
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (seen_[k].lock() == p) return true;
    }
    if (product_hash(*p) != u_.ref_hash[k]) {
      *why = "product differs from reference for " + u_.labels[k];
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    seen_[k] = p;
    return true;
  }

 private:
  const Universe& u_;
  std::mutex mutex_;
  std::vector<std::weak_ptr<const serve::GranuleProduct>> seen_;
};

const char* source_name(serve::ServedFrom s) {
  switch (s) {
    case serve::ServedFrom::ram: return "ram";
    case serve::ServedFrom::disk: return "disk";
    case serve::ServedFrom::build: return "build";
  }
  return "?";
}

struct LoopOut {
  std::vector<double> op_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t by_source[3] = {0, 0, 0};  ///< indexed by ServedFrom
  std::vector<std::size_t> built_keys;
  std::vector<std::string> errors;
};

/// One closed-loop client: requests until `deadline_ns`.
void client_loop(serve::GranuleService& service, const Universe& u, Verifier& verifier,
                 RequestStream& stream, std::int64_t deadline_ns, SpanRecorder* rec,
                 LoopOut& out) {
  while (now_ns() < deadline_ns) {
    const std::size_t k = stream.next();
    const std::uint32_t op = rec ? rec->next_op() : 0;
    ++out.attempted;
    Span root(rec, "serve.request", 0, op);
    const std::int64_t t0 = now_ns();
    try {
      serve::ProductFuture fut;
      {
        Span s(rec, "serve.submit", root.id(), op);
        fut = service.submit(u.requests[k]);
      }
      serve::ProductResponse resp;
      {
        Span s(rec, "serve.get", root.id(), op);
        resp = fut.get();
      }
      const std::int64_t t1 = now_ns();
      root.tag("source", source_name(resp.source));
      root.tag("queue_wait_ms", std::to_string(resp.queue_wait_ms));
      root.end_ms();
      out.op_ms.push_back(ms_between(t0, t1));
      ++out.by_source[static_cast<int>(resp.source)];
      if (resp.source == serve::ServedFrom::build) out.built_keys.push_back(k);
      std::string why;
      if (!verifier.check(k, resp, &why)) {
        ++out.failed;
        if (out.errors.size() < 5) out.errors.push_back(why);
      }
    } catch (const std::exception& e) {
      ++out.failed;
      if (out.errors.size() < 5) out.errors.push_back(std::string("request threw: ") + e.what());
    }
  }
}

/// Runs kClients closed-loop clients (the calling thread is client 0).
LoopOut closed_loop(serve::GranuleService& service, const Universe& u, Verifier& verifier,
                    std::vector<RequestStream>& streams, double seconds, SpanRecorder* rec,
                    double* window_s, int* observed_threads) {
  std::vector<LoopOut> outs(kClients);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < kClients; ++c)
    threads.emplace_back([&, c] {
      client_loop(service, u, verifier, streams[c], deadline, rec, outs[c]);
    });
  if (observed_threads) *observed_threads = process_threads();
  client_loop(service, u, verifier, streams[0], deadline, rec, outs[0]);
  for (auto& t : threads) t.join();
  if (window_s) *window_s = ms_between(start, now_ns()) * 1e-3;
  LoopOut all;
  for (auto& o : outs) {
    all.op_ms.insert(all.op_ms.end(), o.op_ms.begin(), o.op_ms.end());
    all.attempted += o.attempted;
    all.failed += o.failed;
    for (int s = 0; s < 3; ++s) all.by_source[s] += o.by_source[s];
    all.built_keys.insert(all.built_keys.end(), o.built_keys.begin(), o.built_keys.end());
    all.errors.insert(all.errors.end(), o.errors.begin(), o.errors.end());
  }
  return all;
}

void absorb(Result& res, const LoopOut& out) {
  res.attempted += out.attempted;
  res.failed += out.failed;
  for (const auto& e : out.errors) res.fail(e);
}

/// Replays each distinct built key once through the public calls of a cold
/// build, one span per call, and checks the replayed product too.
void replay_cold_keys(const Inputs& in, const geo::GeoCorrections& corrections,
                      const serve::GranuleService& service, const Universe& u,
                      std::vector<std::size_t> keys, const std::string& dir, SpanRecorder& rec,
                      Result& res) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // The service constructs the same builder inside its constructor (set-up);
  // timed here on its own, as an operation of one span.
  std::unique_ptr<pipeline::ProductBuilder> ctor;
  {
    Span s(&rec, "pipeline.builder_ctor", 0, rec.next_op());
    ctor = std::make_unique<pipeline::ProductBuilder>(in.config, corrections);
  }
  const pipeline::ProductBuilder& builder = *ctor;
  const std::string weights = dir + "/serve_weights.h5l";
  pipeline::NnBackend backend([&] { return make_model(in.config, in.config.seed, weights); },
                              load_scaler(dir + "/serve_scaler.txt"), in.config.sequence_window);
  serve::DiskCache disk(serve::DiskCacheConfig{dir + "/replay_disk", 1ull << 32});
  for (const std::size_t k : keys) {
    const serve::ProductRequest& req = u.requests[k];
    const std::uint32_t op = rec.next_op();
    Span root(&rec, "serve.replay", 0, op);
    atl03::Granule merged;
    {
      Span s(&rec, "h5lite.load_merged", root.id(), op);
      merged = serve::ShardIndex::load_merged(*service.index().find(req.granule_id, req.beam));
    }
    pipeline::Artifacts art = pipeline::Artifacts::from_beam(merged, merged.beams.at(0));
    const std::pair<const char*, pipeline::StageId> stages[] = {
        {"atl03.preprocess", pipeline::StageId::preprocess},
        {"resample.resample", pipeline::StageId::resample},
        {"resample.fpb", pipeline::StageId::fpb},
        {"pipeline.features", pipeline::StageId::features}};
    for (const auto& [name, id] : stages) {
      Span s(&rec, name, root.id(), op);
      builder.run_until(art, id);
    }
    {
      Span s(&rec, "nn.classify", root.id(), op);
      art.classes = backend.classify(art.features_out());
      art.mark_done(pipeline::StageId::classify);
    }
    if (req.kind >= pipeline::ProductKind::seasurface) {
      Span s(&rec, "seasurface.detect", root.id(), op);
      builder.build(art, pipeline::ProductKind::seasurface, nullptr, req.method);
    }
    if (req.kind >= pipeline::ProductKind::freeboard) {
      Span s(&rec, "freeboard.compute", root.id(), op);
      builder.build(art, pipeline::ProductKind::freeboard, nullptr, req.method);
    }
    serve::GranuleProduct product;
    product.granule_id = req.granule_id;
    product.beam = req.beam;
    product.kind = req.kind;
    product.segments = std::move(art.segments);
    product.classes = std::move(art.classes);
    if (req.kind >= pipeline::ProductKind::seasurface) product.sea_surface = art.sea_surface;
    if (req.kind >= pipeline::ProductKind::freeboard) product.freeboard = art.freeboard;
    const serve::ProductKey key = service.key_for(req);
    {
      Span s(&rec, "serve.disk_put", root.id(), op);
      disk.put(key, product);
    }
    std::shared_ptr<const serve::GranuleProduct> back;
    {
      Span s(&rec, "serve.disk_get", root.id(), op);
      back = disk.get(key);
    }
    root.end_ms();
    ++res.attempted;
    if (product_hash(product) != u.ref_hash[k] || !back || product_hash(*back) != u.ref_hash[k]) {
      ++res.failed;
      res.fail("replayed product differs from reference for " + u.labels[k]);
    }
  }
  res.counters["nn.windows"] = static_cast<double>(backend.windows());
  res.counters["nn.classify_calls"] = static_cast<double>(keys.size());
}

}  // namespace

void run_serve(const Options& opt, Result& res) {
  // Clients and workers alternate on one request (a client waits while a
  // worker builds for it), plus the disk write-back thread. The set-up's
  // warm-up engine (kWorkers threads) is gone before any client starts.
  res.threads = check_thread_budget(static_cast<int>(kClients) + 1,
                                    static_cast<int>(kClients + kWorkers) + 1);
  res.work_unit = "requests";
  namespace fs = std::filesystem;

  Inputs in;
  std::unique_ptr<core::Campaign> campaign;
  std::unique_ptr<serve::GranuleService> service;
  std::unique_ptr<Universe> universe;
  std::unique_ptr<Verifier> verifier;
  std::vector<RequestStream> streams;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    verifier.reset();
    universe.reset();
    campaign.reset();
    in = Inputs{};
    release_freed_memory();
    const std::string disk_dir = opt.dir + "/disk" + std::to_string(rep);
    fs::remove_all(disk_dir);
    const std::int64_t t0 = now_ns();
    in = load_inputs(opt.dir);
    campaign = std::make_unique<core::Campaign>(in.config);
    serve::ShardIndex index = serve::ShardIndex::build(in.shards.files);
    universe = std::make_unique<Universe>(make_universe(index, opt.dir));
    verifier = std::make_unique<Verifier>(*universe);
    serve::ServiceConfig sc;
    sc.workers = kWorkers;
    sc.cache_bytes = static_cast<std::size_t>(universe->mean_bytes * kRamProducts);
    sc.cache_shards = 1;
    sc.disk_cache_dir = disk_dir;
    const double disk_bytes = universe->mean_bytes * kDiskProducts;
    sc.disk_cache_bytes = static_cast<std::size_t>(disk_bytes);
    const std::string weights = opt.dir + "/serve_weights.h5l";
    const core::PipelineConfig config = in.config;
    service = std::make_unique<serve::GranuleService>(
        sc, in.config, campaign->corrections(), std::move(index),
        [config, weights] { return make_model(config, config.seed, weights); },
        load_scaler(opt.dir + "/serve_scaler.txt"));
    {
      // Served products of the warm-up are checked when the clients first
      // get them.
      mapred::Engine engine({1, kWorkers});
      service->warm(warmup_requests(*universe, disk_bytes), engine);
      service->wait_disk_writebacks();
    }
    res.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
    streams.clear();
    for (std::size_t c = 0; c < kClients; ++c)
      streams.emplace_back(*universe, util::hash64(opt.seed * 1000003ull + c));
  }

  const serve::ServiceMetrics before = service->metrics();
  LoopOut untraced = closed_loop(*service, *universe, *verifier, streams, opt.seconds, nullptr,
                                 &res.window_s, &res.threads.observed);
  absorb(res, untraced);
  if (!opt.trace) {
    res.op_ms = std::move(untraced.op_ms);
    res.work = static_cast<double>(res.op_ms.size());
    const serve::ServiceMetrics after = service->metrics();
    res.info["resumed_builds"] = std::to_string(after.resumed_builds - before.resumed_builds);
    res.info["requests_by_source"] = std::to_string(untraced.by_source[1]) + " ram, " +
                                     std::to_string(untraced.by_source[2]) + " disk, " +
                                     std::to_string(untraced.by_source[0]) + " build";
    return;
  }

  res.untraced_op_ms = std::move(untraced.op_ms);
  SpanRecorder rec(true);
  const serve::ServiceMetrics mid = service->metrics();
  LoopOut traced = closed_loop(*service, *universe, *verifier, streams, opt.seconds, &rec,
                               &res.window_s, nullptr);
  const serve::ServiceMetrics after = service->metrics();
  absorb(res, traced);
  res.op_ms = traced.op_ms;
  res.work = static_cast<double>(res.op_ms.size());
  res.counters["serve.resumed_builds"] =
      static_cast<double>(after.resumed_builds - mid.resumed_builds);
  service->wait_disk_writebacks();
  replay_cold_keys(in, campaign->corrections(), *service, *universe, traced.built_keys, opt.dir,
                   rec, res);
  rec.write_csv(opt.dir + "/spans.csv");
}

}  // namespace perf
