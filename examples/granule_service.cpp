// Serving demo: stand up a GranuleService over a sharded tiny campaign and
// drive mixed hot/cold traffic at it — a skewed workload where one popular
// product takes most of the requests (the "dashboard granule", submitted as
// `interactive`) while a long tail of cold (beam, method) combinations
// trickles in as `background`. Prints the ServiceMetrics snapshot: cache
// hit rates on both tiers, coalescing, class-aware sheds and per-stage /
// per-class latency distributions — plus the obs view of the same traffic:
// a Prometheus exposition excerpt and a Perfetto-loadable trace of the span
// ring — then "restarts" the service over the same disk cache directory to
// show the warm-disk cold start (products come back from the disk tier
// without any shard IO or inference).
//
//   ./examples/granule_service
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "baseline/decision_tree.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "obs/export.hpp"
#include "pipeline/kinds.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

int main() {
  using namespace is2;
  using atl03::BeamId;

  // 1. Build the data plane: one simulated granule, sharded to disk the way
  //    the map-reduce jobs shard it, then indexed for serving.
  const core::PipelineConfig config = core::PipelineConfig::tiny();
  const core::Campaign campaign(config);
  std::printf("== generating + sharding granule %s ==\n",
              campaign.pairs()[1].granule_id.c_str());
  const core::PairDataset pair = campaign.generate(1);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("is2_serve_demo_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  core::ShardSet shards;
  core::write_shards(pair.granule, 0, 2, dir, shards);
  const serve::ShardIndex index = serve::ShardIndex::build(shards.files);
  std::printf("%zu shard files -> %zu servable (granule, beam) products\n",
              shards.files.size(), index.size());

  // 2. Model + scaler (untrained weights: the demo is about serving, and an
  //    untrained LSTM costs exactly as much to serve as a trained one).
  const auto merged =
      serve::ShardIndex::load_merged(*index.find(pair.granule.id, BeamId::Gt1r));
  const auto pre = atl03::preprocess_beam(merged, merged.beams[0], campaign.corrections(),
                                          config.preprocess);
  auto segs = resample::resample(pre, config.segmenter);
  const resample::FirstPhotonBiasCorrector fpb(config.instrument.dead_time_m,
                                               config.instrument.strong_channels);
  fpb.apply(segs);
  const auto features = resample::to_features(segs, resample::rolling_baseline(segs));
  const resample::FeatureScaler scaler = resample::FeatureScaler::fit(features);
  const auto model_factory = [&config] {
    util::Rng rng(99);
    return nn::make_lstm_model(config.sequence_window, resample::FeatureRow::kDim, rng);
  };
  // Second classifier backend: an ATL07-style decision tree (fit here on
  // photon truth for brevity) served behind the same submit API.
  std::vector<float> tx;
  std::vector<std::uint8_t> ty;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (segs[i].truth == atl03::SurfaceClass::Unknown) continue;
    for (int d = 0; d < resample::FeatureRow::kDim; ++d) tx.push_back(features[i].v[d]);
    ty.push_back(static_cast<std::uint8_t>(segs[i].truth));
  }
  baseline::DecisionTree tree;
  tree.fit(tx, resample::FeatureRow::kDim, ty, atl03::kNumClasses);
  const auto tree_factory = [tree] { return tree; };

  // 3. The service: 2 workers, a bounded queue, a 64 MiB RAM product cache
  //    and a persistent disk tier under the demo directory.
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.cache_bytes = 64u << 20;
  cfg.disk_cache_dir = dir + "/product_cache";
  serve::GranuleService service(cfg, config, campaign.corrections(), index, model_factory,
                                scaler, tree_factory);

  // 3b. Kind-aware serving: build the classification prefix first, then ask
  //     for the full freeboard product — the second build *resumes* from the
  //     cached prefix (only sea surface + freeboard run, no shard IO, no
  //     inference). The decision-tree backend serves through the same API
  //     under its own cache identity.
  serve::ProductRequest hot0;
  hot0.granule_id = pair.granule.id;
  hot0.beam = BeamId::Gt1r;
  serve::ProductRequest prefix = hot0;
  prefix.kind = pipeline::ProductKind::classification;
  service.submit(prefix).get();
  service.submit(hot0).get();  // resumed build
  serve::ProductRequest tree_req = hot0;
  tree_req.backend = pipeline::Backend::decision_tree;
  const auto tree_response = service.submit(tree_req).get();
  std::printf("kinds/backends: classification prefix built, freeboard resumed from it "
              "(%llu resumed build(s)); tree-backend product: %zu freeboard points\n",
              static_cast<unsigned long long>(service.metrics().resumed_builds),
              tree_response.product->freeboard.points.size());

  // 4. Mixed hot/cold traffic: 70% of requests hit the hot product at
  //    interactive priority, the rest spread over every (beam, method)
  //    combination as background backfill.
  const BeamId beams[] = {BeamId::Gt1r, BeamId::Gt2r, BeamId::Gt3r};
  const seasurface::Method methods[] = {
      seasurface::Method::NasaEquation, seasurface::Method::MinElevation,
      seasurface::Method::AverageElevation, seasurface::Method::NearestMinElevation};
  serve::ProductRequest hot;
  hot.granule_id = pair.granule.id;
  hot.beam = BeamId::Gt1r;
  hot.priority = serve::Priority::interactive;

  std::printf("== driving 80 requests (70%% hot/interactive) from 4 clients ==\n");
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(500 + c);
      for (int i = 0; i < 20; ++i) {
        serve::ProductRequest r = hot;
        if (rng.uniform() > 0.7) {
          r.beam = beams[rng.next() % 3];
          r.method = methods[rng.next() % 4];
          r.priority = serve::Priority::background;
        }
        // Load-shedding submit: under saturation a queued background job is
        // displaced before an interactive request is refused (a real
        // frontend would answer 429 / retry-later for the shed class).
        if (auto f = service.try_submit(r)) {
          try {
            const auto response = f->get();
            (void)response;
          } catch (const serve::ShedError&) {
            // our queued job was displaced by a more important one
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // 5. What the service saw.
  const auto m = service.metrics();
  std::printf("\n== ServiceMetrics ==\n");
  std::printf("requests          %llu (fast cache hits %llu)\n",
              static_cast<unsigned long long>(m.requests),
              static_cast<unsigned long long>(m.fast_hits));
  std::printf("scheduler         dispatched %llu, coalesced %llu, shed %llu\n",
              static_cast<unsigned long long>(m.scheduler.dispatched),
              static_cast<unsigned long long>(m.scheduler.coalesced),
              static_cast<unsigned long long>(m.scheduler.rejected));
  std::printf("RAM cache         %llu hits / %llu misses (%.0f%% hit rate), %zu products, "
              "%.1f MiB resident, %llu evictions\n",
              static_cast<unsigned long long>(m.cache.hits),
              static_cast<unsigned long long>(m.cache.misses), m.cache.hit_rate() * 100.0,
              m.cache.entries, static_cast<double>(m.cache.bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(m.cache.evictions));
  std::printf("disk cache        %llu hits / %llu misses, %zu files, %.1f MiB, "
              "%llu writes\n",
              static_cast<unsigned long long>(m.disk.hits),
              static_cast<unsigned long long>(m.disk.misses), m.disk.entries,
              static_cast<double>(m.disk.bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(m.disk.writes));
  for (std::size_t c = 0; c < serve::kPriorityClasses; ++c)
    std::printf("class %-11s %llu requests, %llu shed, mean %.2f ms\n",
                serve::priority_name(static_cast<serve::Priority>(c)),
                static_cast<unsigned long long>(m.by_class[c].requests),
                static_cast<unsigned long long>(m.scheduler.shed_by_class[c]),
                m.by_class[c].latency.stats.mean());
  std::printf("inference         %llu windows in %llu batches\n",
              static_cast<unsigned long long>(m.inference_windows),
              static_cast<unsigned long long>(m.inference_batches));
  std::printf("serve means [ms]  load %.1f | disk_load %.2f | total %.1f\n",
              m.load.stats.mean(), m.disk_load.stats.mean(), m.total.stats.mean());
  std::printf("builder stages    ");
  for (std::size_t s = 0; s < pipeline::kNumStages; ++s)
    std::printf("%s %.2f ms%s", pipeline::stage_name(static_cast<pipeline::StageId>(s)),
                m.builder[s].stats.mean(), s + 1 < pipeline::kNumStages ? " | " : "\n");
  std::printf("\nbuild latency distribution (log-scale bins):\n%s", m.total.render(40).c_str());
  std::printf("scheduled jobs     queue_wait p50 %.2f / p99 %.2f ms, "
              "service_time p50 %.2f / p99 %.2f ms\n",
              m.queue_wait.p50_ms(), m.queue_wait.p99_ms(), m.service_time.p50_ms(),
              m.service_time.p99_ms());

  // 5b. The same numbers through the obs exporters: every counter and
  //     latency above is registry-backed, so one snapshot serves Prometheus
  //     scrapes, JSON dashboards and this excerpt alike — and the span ring
  //     renders the traffic as a Perfetto timeline.
  std::printf("\n== obs exports ==\n");
  const std::string prom = obs::to_prometheus(service.obs_snapshot());
  std::printf("Prometheus exposition: %zu bytes; excerpt:\n", prom.size());
  std::size_t shown = 0, at = 0;
  while (at < prom.size() && shown < 8) {
    const std::size_t end = prom.find('\n', at);
    const std::string line = prom.substr(at, end - at);
    at = end + 1;
    if (line.rfind("is2_serve_", 0) == 0 || line.rfind("is2_sched_", 0) == 0) {
      std::printf("  %s\n", line.c_str());
      ++shown;
    }
  }
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "is2_serve_demo_trace.json").string();
  {
    std::ofstream out(trace_path, std::ios::trunc);
    out << obs::to_perfetto(service.trace_spans(), obs::thread_labels());
  }
  std::printf("Perfetto trace: %zu spans -> %s (load it at https://ui.perfetto.dev)\n",
              service.trace_spans().size(), trace_path.c_str());

  // 6. Restart onto the same disk tier: the RAM cache is empty but every
  //    product persisted, so the cold start deserializes files instead of
  //    re-running the pipeline (no shard IO, no inference).
  service.shutdown();  // drains pending disk write-backs
  std::printf("\n== restarting over the same disk cache dir ==\n");
  serve::GranuleService restarted(cfg, config, campaign.corrections(), index, model_factory,
                                  scaler);
  util::Timer cold_start;
  std::size_t from_disk = 0;
  for (const BeamId beam : beams) {
    serve::ProductRequest r = hot;
    r.beam = beam;
    const auto response = restarted.submit(r).get();
    if (response.source == serve::ServedFrom::disk) ++from_disk;
  }
  std::printf("3 products in %.1f ms, %zu from the disk tier (build would be ~%.0f ms each)\n",
              cold_start.millis(), from_disk, m.total.stats.mean());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}
