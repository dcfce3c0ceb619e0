// Serving throughput bench: QPS and p50/p99 latency of the GranuleService
// under cold (every request builds from the shards) and warm (every request
// hits the LRU product cache) traffic, across worker counts, plus a cache-size sweep
// under repeat traffic with evictions, a cache-tier sweep (full rebuild vs
// warm-disk cold start vs warm-RAM), a priority-mix run under a saturated
// queue (per-class sheds + latency), and the cluster SLO sweep: a 3-node
// `serve::Cluster` under the open-loop Poisson/Zipf/burst load generator
// (bench/loadgen.hpp), sweeping offered QPS for the p99-vs-offered and
// per-class shed-rate curves.
//
//   ./bench/bench_serve_throughput [BENCH_serve.json]
//
// With a path argument, a machine-readable summary (per-worker QPS/latency,
// per-stage cold-build means, queue-wait vs service-time p99 split, cache
// sweep, cache-tier sweep, priority mix, cluster SLO curve) is written
// there so CI can accumulate the perf trajectory as build artifacts — plus,
// next to it, the service's obs snapshot as Prometheus text exposition
// (`<stem>.prom`), the cluster's node-labeled merged snapshot
// (`<stem>.cluster.prom`; both linted by tools/check_prometheus.py) and the
// span ring as a Perfetto-loadable trace (`<stem>.trace.json`).
//
// Tripwires (exit 1):
//  * no build of the cold passes and the full-rebuild pass may resume from a
//    cached product — those rows document from-shards builds;
//  * the warm-disk cold start must be >= 5x faster than a full rebuild on
//    the tiny scenario — the reason the disk tier exists;
//  * full-rate tracing must not slow the warm RAM-hit path by more than 2%
//    (plus a small absolute floor) over sampling disabled — the obs layer's
//    hot-path budget;
//  * the cluster run must record at least one peer fetch — the router's
//    reason to probe replica RAM tiers before paying shard IO + inference;
//  * the chaos run (same fleet shape, seeded disk-fault storm + one
//    mid-sweep node quarantine/revive) must keep availability — the served
//    fraction of offered requests — at >= 99%: the point of the retry /
//    failover / self-healing layer.
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "loadgen.hpp"
#include "obs/export.hpp"
#include "serve/cluster.hpp"
#include "serve/service.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using bench::TrafficResult;

/// Closed-loop driver (bench/loadgen.cpp) — capacity and per-request
/// latency; the open-loop SLO sweep is the cluster section below.
TrafficResult drive(serve::GranuleService& service,
                    const std::vector<serve::ProductRequest>& requests, std::size_t clients) {
  return bench::drive_closed_loop(service, requests, clients);
}

struct WorkerRow {
  std::size_t workers = 0;
  double cold_qps = 0, cold_p50 = 0, cold_p99 = 0;
  double warm_qps = 0, warm_p50 = 0, warm_p99 = 0;
  serve::ServiceMetrics metrics;  ///< read after the cold pass: cold builds only
};

struct SweepRow {
  double scale = 0;
  double qps = 0, hit_rate = 0;
  std::uint64_t evictions = 0, builds = 0;
};

/// One pass of the cache-tier sweep: the same request universe served by a
/// full rebuild, a warm-disk cold start (fresh service, populated disk
/// directory, empty RAM tier) and a warm RAM tier.
struct TierSweep {
  double rebuild_mean_ms = 0, rebuild_p99_ms = 0;
  double warm_disk_mean_ms = 0, warm_disk_p99_ms = 0;
  double warm_ram_mean_ms = 0, warm_ram_p99_ms = 0;
  std::uint64_t disk_hits = 0, disk_bytes = 0;

  double disk_speedup() const {
    return warm_disk_mean_ms > 0 ? rebuild_mean_ms / warm_disk_mean_ms : 0.0;
  }
};

struct ClassRow {
  std::uint64_t requests = 0, shed = 0;
  double mean_ms = 0, max_ms = 0;
};

/// Warm RAM-hit mean latency with tracing at full sample rate vs disabled
/// (min of `kTrials` passes each, so scheduler noise cancels).
struct TraceOverhead {
  static constexpr int kTrials = 3;
  double traced_mean_ms = 0, untraced_mean_ms = 0;

  double ratio() const {
    return untraced_mean_ms > 0 ? traced_mean_ms / untraced_mean_ms : 0.0;
  }
  /// <2% relative plus a 5 us absolute floor (tiny means divide noisily).
  bool ok() const { return traced_mean_ms <= untraced_mean_ms * 1.02 + 0.005; }
};

/// The cluster SLO sweep: one open-loop run per offered-QPS point against a
/// reused 3-node fleet (state carries across points — the realistic warm-up
/// trajectory), plus the router counters after the sweep.
struct ClusterSection {
  serve::ClusterConfig config;
  std::vector<bench::LoadgenResult> curve;  ///< one row per offered point
  serve::ClusterMetrics metrics;

  /// Headline numbers: the highest offered point's p99 and total shed
  /// rate.
  double p99_ms() const { return curve.empty() ? 0.0 : curve.back().p99(); }
  double shed_rate() const { return curve.empty() ? 0.0 : curve.back().shed_rate(); }
};

/// The chaos run: the open-loop sweep repeated against a warmed fleet with
/// an armed fault plan (probabilistic disk.read/disk.write failures) and one
/// explicit quarantine + revive mid-sweep. The headline is availability —
/// served / offered — which the retry, failover and re-replication layers
/// must keep at >= 99% despite the injected faults.
struct ChaosSection {
  double disk_fault_rate = 0.0;
  std::vector<bench::LoadgenResult> curve;
  serve::ClusterMetrics metrics;
  std::uint64_t injected_disk_read = 0;   ///< disk.read faults actually fired
  std::uint64_t injected_disk_write = 0;  ///< disk.write faults actually fired

  std::uint64_t offered() const {
    std::uint64_t n = 0;
    for (const auto& r : curve) n += r.offered;
    return n;
  }
  std::uint64_t served() const {
    std::uint64_t n = 0;
    for (const auto& r : curve) n += r.served;
    return n;
  }
  double availability() const {
    const std::uint64_t o = offered();
    return o ? static_cast<double>(served()) / static_cast<double>(o) : 0.0;
  }
};

void write_json(const std::string& path, const std::vector<WorkerRow>& rows,
                const std::vector<SweepRow>& sweep, const TierSweep& tiers,
                const std::array<ClassRow, serve::kPriorityClasses>& classes,
                const TraceOverhead& overhead, const ClusterSection& cluster,
                const ChaosSection& chaos) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  using Latency = obs::HistogramMetric::Snapshot;
  auto stage = [&](const char* name, const Latency& s, bool last = false) {
    out << "      \"" << name << "\": {\"count\": " << s.stats.count()
        << ", \"mean_ms\": " << s.stats.mean() << ", \"max_ms\": " << s.stats.max() << "}"
        << (last ? "\n" : ",\n");
  };
  // The queue-wait vs service-time split of the highest worker-count run's
  // cold pass (scheduled jobs only).
  const Latency& qw = rows.back().metrics.queue_wait;
  const Latency& st = rows.back().metrics.service_time;
  out << "{\n  \"scenario\": \"tiny\",\n"
      << "  \"queue_wait_p99_ms\": " << qw.p99_ms()
      << ", \"queue_wait_mean_ms\": " << qw.stats.mean() << ",\n"
      << "  \"service_time_p99_ms\": " << st.p99_ms()
      << ", \"service_time_mean_ms\": " << st.stats.mean() << ",\n"
      << "  \"warm_hit_overhead\": {\"traced_mean_ms\": " << overhead.traced_mean_ms
      << ", \"untraced_mean_ms\": " << overhead.untraced_mean_ms
      << ", \"ratio\": " << overhead.ratio() << "},\n"
      << "  \"workers\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const WorkerRow& r = rows[i];
    out << "    {\"workers\": " << r.workers << ", \"cold_qps\": " << r.cold_qps
        << ", \"cold_p50_ms\": " << r.cold_p50 << ", \"cold_p99_ms\": " << r.cold_p99
        << ", \"warm_qps\": " << r.warm_qps << ", \"warm_p50_ms\": " << r.warm_p50
        << ", \"warm_p99_ms\": " << r.warm_p99 << ",\n     \"stages\": {\n";
    const auto builder_stage = [&](pipeline::StageId id) -> const Latency& {
      return r.metrics.builder[static_cast<std::size_t>(id)];
    };
    stage("load", r.metrics.load);
    stage("features", builder_stage(pipeline::StageId::features));
    stage("inference", builder_stage(pipeline::StageId::classify));
    stage("seasurface", builder_stage(pipeline::StageId::seasurface));
    stage("freeboard", builder_stage(pipeline::StageId::freeboard));
    stage("total", r.metrics.total, /*last=*/true);
    out << "    }}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  // Raw per-stage ProductBuilder timings (the seven stage-graph stages) from
  // the highest worker-count run's cold pass.
  out << "  ],\n  \"builder_stages\": {\n";
  if (!rows.empty()) {
    const auto& builder = rows.back().metrics.builder;
    for (std::size_t s = 0; s < is2::pipeline::kNumStages; ++s) {
      const auto& lat = builder[s];
      out << "    \"" << is2::pipeline::stage_name(static_cast<is2::pipeline::StageId>(s))
          << "\": {\"count\": " << lat.stats.count() << ", \"mean_ms\": " << lat.stats.mean()
          << ", \"max_ms\": " << lat.stats.max() << "}"
          << (s + 1 < is2::pipeline::kNumStages ? "," : "") << "\n";
    }
  }
  out << "  },\n  \"cache_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    out << "    {\"budget_products\": " << r.scale << ", \"qps\": " << r.qps
        << ", \"hit_rate\": " << r.hit_rate << ", \"evictions\": " << r.evictions
        << ", \"builds\": " << r.builds << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"cluster\": {\n"
      << "    \"nodes\": " << cluster.config.nodes
      << ", \"replication_factor\": " << cluster.config.replication_factor
      << ", \"vnodes\": " << cluster.config.vnodes
      << ", \"hot_key_threshold\": " << cluster.config.hot_key_threshold << ",\n"
      << "    \"slo_curve\": [\n";
  for (std::size_t i = 0; i < cluster.curve.size(); ++i) {
    const bench::LoadgenResult& r = cluster.curve[i];
    out << "      {\"offered_qps\": " << r.offered_qps
        << ", \"achieved_qps\": " << r.achieved_qps << ", \"offered\": " << r.offered
        << ", \"served\": " << r.served << ",\n       \"p50_ms\": " << r.p50()
        << ", \"p99_ms\": " << r.p99() << ", \"mean_ms\": " << r.mean()
        << ", \"shed_rate\": " << r.shed_rate() << ",\n       \"by_class\": {";
    for (std::size_t c = 0; c < serve::kPriorityClasses; ++c) {
      const bench::ClassOutcome& cls = r.by_class[c];
      out << "\"" << serve::priority_name(static_cast<serve::Priority>(c))
          << "\": {\"offered\": " << cls.offered << ", \"served\": " << cls.served
          << ", \"shed\": " << cls.shed() << ", \"shed_rate\": " << cls.shed_rate() << "}"
          << (c + 1 < serve::kPriorityClasses ? ", " : "");
    }
    out << "}}" << (i + 1 < cluster.curve.size() ? "," : "") << "\n";
  }
  out << "    ],\n"
      << "    \"peer_probes\": " << cluster.metrics.peer_probes
      << ", \"peer_fetches\": " << cluster.metrics.peer_fetches
      << ", \"replica_routes\": " << cluster.metrics.replica_routes
      << ", \"hot_keys\": " << cluster.metrics.hot_keys << ",\n"
      << "    \"imbalance\": " << cluster.metrics.imbalance()
      << ", \"cluster_p99_ms\": " << cluster.p99_ms()
      << ", \"cluster_shed_rate\": " << cluster.shed_rate() << "\n  },\n"
      << "  \"chaos\": {\n"
      << "    \"disk_fault_rate\": " << chaos.disk_fault_rate
      << ", \"offered\": " << chaos.offered() << ", \"served\": " << chaos.served()
      << ", \"availability\": " << chaos.availability() << ",\n"
      << "    \"injected_disk_read\": " << chaos.injected_disk_read
      << ", \"injected_disk_write\": " << chaos.injected_disk_write << ",\n"
      << "    \"node_failures\": " << chaos.metrics.node_failures
      << ", \"quarantines\": " << chaos.metrics.quarantines
      << ", \"revives\": " << chaos.metrics.revives
      << ", \"rereplicated_keys\": " << chaos.metrics.rereplicated_keys << ",\n"
      << "    \"disk_read_retries\": " << chaos.metrics.shared_disk.disk_read_retries
      << ", \"corrupt_dropped\": " << chaos.metrics.shared_disk.corrupt_dropped << "\n  },\n"
      << "  \"cache_tiers\": {\n"
      << "    \"rebuild_mean_ms\": " << tiers.rebuild_mean_ms
      << ", \"rebuild_p99_ms\": " << tiers.rebuild_p99_ms << ",\n"
      << "    \"warm_disk_mean_ms\": " << tiers.warm_disk_mean_ms
      << ", \"warm_disk_p99_ms\": " << tiers.warm_disk_p99_ms << ",\n"
      << "    \"warm_ram_mean_ms\": " << tiers.warm_ram_mean_ms
      << ", \"warm_ram_p99_ms\": " << tiers.warm_ram_p99_ms << ",\n"
      << "    \"disk_hits\": " << tiers.disk_hits
      << ", \"disk_bytes\": " << tiers.disk_bytes
      << ", \"disk_speedup\": " << tiers.disk_speedup() << "\n  },\n"
      << "  \"priority_mix\": {\n";
  for (std::size_t c = 0; c < serve::kPriorityClasses; ++c) {
    const ClassRow& r = classes[c];
    out << "    \"" << serve::priority_name(static_cast<serve::Priority>(c))
        << "\": {\"requests\": " << r.requests << ", \"shed\": " << r.shed
        << ", \"mean_ms\": " << r.mean_ms << ", \"max_ms\": " << r.max_ms << "}"
        << (c + 1 < serve::kPriorityClasses ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "";
  const core::PipelineConfig config = core::PipelineConfig::tiny();
  const core::Campaign campaign(config);

  std::printf("== generating campaign pair 2 (tiny scale) ==\n");
  const core::PairDataset pair = campaign.generate(1);

  const std::string dir =
      (std::filesystem::temp_directory_path() / ("is2_serve_bench_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  core::ShardSet shards;
  core::write_shards(pair.granule, 0, /*chunks_per_beam=*/2, dir, shards);
  // One copy of the granule per sea-surface method, for the cold universe
  // (the pair index keeps the copies' shard files apart).
  const auto copy_id = [&pair](seasurface::Method method) {
    return pair.granule.id + "_m" + std::to_string(static_cast<int>(method));
  };
  {
    atl03::Granule copy = pair.granule;
    for (std::size_t m = 0; m < seasurface::kMethods; ++m) {
      copy.id = copy_id(static_cast<seasurface::Method>(m));
      core::write_shards(copy, 1 + m, /*chunks_per_beam=*/2, dir, shards);
    }
  }
  const serve::ShardIndex index = serve::ShardIndex::build(shards.files);

  // Scaler fit on the first beam's features (as the batch pipeline would).
  const auto merged = serve::ShardIndex::load_merged(*index.find(pair.granule.id, BeamId::Gt1r));
  const auto pre = atl03::preprocess_beam(merged, merged.beams[0], campaign.corrections(),
                                          config.preprocess);
  auto segs = resample::resample(pre, config.segmenter);
  const resample::FirstPhotonBiasCorrector fpb(config.instrument.dead_time_m,
                                               config.instrument.strong_channels);
  fpb.apply(segs);
  const resample::FeatureScaler scaler =
      resample::FeatureScaler::fit(resample::to_features(segs, resample::rolling_baseline(segs)));

  const auto model_factory = [&config] {
    util::Rng rng(99);
    return nn::make_lstm_model(config.sequence_window, resample::FeatureRow::kDim, rng);
  };

  // The request universe: every strong beam x every sea surface method.
  // The cold universe runs the same 12 builds, each method on its own copy
  // of the granule: no two of its requests share a granule and beam, so
  // none has a sibling product to resume from, whatever the caches hold —
  // every one builds from the shards, as the cold and full-rebuild rows
  // document.
  std::vector<serve::ProductRequest> universe;
  std::vector<serve::ProductRequest> cold_universe;
  for (const BeamId beam : {BeamId::Gt1r, BeamId::Gt2r, BeamId::Gt3r})
    for (const auto method :
         {seasurface::Method::NasaEquation, seasurface::Method::MinElevation,
          seasurface::Method::AverageElevation, seasurface::Method::NearestMinElevation}) {
      serve::ProductRequest r;
      r.granule_id = pair.granule.id;
      r.beam = beam;
      r.method = method;
      universe.push_back(r);
      r.granule_id = copy_id(method);
      cold_universe.push_back(r);
    }
  // Resumed builds in the passes documented as every-request-builds (the
  // cold rows and the full rebuild): must stay 0.
  std::uint64_t cold_resumed = 0;

  const std::size_t warm_requests = 500;
  util::Rng traffic_rng(7);
  std::vector<serve::ProductRequest> warm_traffic;
  warm_traffic.reserve(warm_requests);
  for (std::size_t i = 0; i < warm_requests; ++i)
    warm_traffic.push_back(universe[traffic_rng.next() % universe.size()]);

  std::string prom_text;      // obs snapshot of the last worker run
  std::string perfetto_text;  // its span ring, Perfetto trace_event JSON
  util::Table table("GranuleService throughput (tiny campaign, " +
                    std::to_string(universe.size()) + " distinct products)");
  table.set_header({"workers", "cold QPS", "cold p50 ms", "cold p99 ms", "warm QPS",
                    "warm p50 ms", "warm p99 ms", "speedup"});

  std::vector<WorkerRow> worker_rows;
  std::vector<SweepRow> sweep_rows;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    serve::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 64;
    cfg.cache_bytes = 512u << 20;  // everything fits: warm pass is all hits
    serve::GranuleService service(cfg, config, campaign.corrections(), index, model_factory,
                                  scaler);

    const TrafficResult cold = drive(service, cold_universe, workers);
    const serve::ServiceMetrics cold_metrics = service.metrics();  // cold builds only
    cold_resumed += cold_metrics.resumed_builds;
    (void)drive(service, universe, workers);  // untimed: fill the RAM tier
    const TrafficResult warm = drive(service, warm_traffic, workers > 1 ? workers * 2 : 2);
    const double speedup = warm.qps() / (cold.qps() > 0 ? cold.qps() : 1e-9);

    table.add_row({std::to_string(workers), std::to_string(cold.qps()).substr(0, 7),
                   std::to_string(cold.p50()).substr(0, 7),
                   std::to_string(cold.p99()).substr(0, 7),
                   std::to_string(warm.qps()).substr(0, 9),
                   std::to_string(warm.p50()).substr(0, 7),
                   std::to_string(warm.p99()).substr(0, 7),
                   std::to_string(speedup).substr(0, 8) + "x"});

    const auto m = service.metrics();
    worker_rows.push_back(WorkerRow{workers, cold.qps(), cold.p50(), cold.p99(), warm.qps(),
                                    warm.p50(), warm.p99(), cold_metrics});
    // Keep the last (widest) run's exposition + trace for the CI artifacts.
    prom_text = obs::to_prometheus(service.obs_snapshot());
    perfetto_text = obs::to_perfetto(service.trace_spans(), obs::thread_labels());
    std::printf(
        "workers=%zu  dispatched=%llu (resumed %llu) coalesced=%llu fast_hits=%llu  cache: "
        "%llu hits / %llu misses, %zu entries, %.1f MiB  inference: %llu windows in %llu "
        "batches\n",
        workers, static_cast<unsigned long long>(m.scheduler.dispatched),
        static_cast<unsigned long long>(m.resumed_builds),
        static_cast<unsigned long long>(m.scheduler.coalesced),
        static_cast<unsigned long long>(m.fast_hits),
        static_cast<unsigned long long>(m.cache.hits),
        static_cast<unsigned long long>(m.cache.misses), m.cache.entries,
        static_cast<double>(m.cache.bytes) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(m.inference_windows),
        static_cast<unsigned long long>(m.inference_batches));
  }
  std::printf("\n%s\n", table.to_string().c_str());
  {
    const auto& m = worker_rows.back().metrics;
    std::printf("scheduled-job split (workers=%zu): queue_wait p50 %.3f / p99 %.3f ms, "
                "service_time p50 %.3f / p99 %.3f ms\n\n",
                worker_rows.back().workers, m.queue_wait.p50_ms(), m.queue_wait.p99_ms(),
                m.service_time.p50_ms(), m.service_time.p99_ms());
  }

  // Cache-size sweep: repeat traffic with a budget too small for the working
  // set keeps rebuilding; a full-size budget serves it entirely from memory.
  std::printf("== cache-size sweep (2 workers, %zu repeat requests) ==\n", warm_requests / 4);
  util::Table sweep("Cache size vs hit rate");
  sweep.set_header({"cache budget", "QPS", "hit rate", "evictions", "builds"});
  std::size_t one_product_bytes = 0;
  for (const double scale : {0.4, 2.0, 100.0}) {
    serve::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.cache_shards = 1;
    if (one_product_bytes == 0) {
      // Probe one build to size the budget in product units.
      serve::GranuleService probe(cfg, config, campaign.corrections(), index, model_factory,
                                  scaler);
      one_product_bytes = probe.submit(universe[0]).get().product->approx_bytes();
    }
    cfg.cache_bytes = static_cast<std::size_t>(static_cast<double>(one_product_bytes) * scale);
    serve::GranuleService service(cfg, config, campaign.corrections(), index, model_factory,
                                  scaler);
    std::vector<serve::ProductRequest> repeat(warm_traffic.begin(),
                                              warm_traffic.begin() + warm_requests / 4);
    const TrafficResult r = drive(service, repeat, 2);
    const auto m = service.metrics();
    sweep_rows.push_back(
        SweepRow{scale, r.qps(), m.cache.hit_rate(), m.cache.evictions, m.scheduler.dispatched});
    sweep.add_row({std::to_string(scale).substr(0, 5) + " products",
                   std::to_string(r.qps()).substr(0, 8),
                   std::to_string(m.cache.hit_rate()).substr(0, 5),
                   std::to_string(m.cache.evictions),
                   std::to_string(m.scheduler.dispatched)});
  }
  std::printf("%s\n", sweep.to_string().c_str());

  // Cache-tier sweep: the same 12 products served three ways. A service
  // without a disk tier times the full rebuild over the cold universe; an
  // untimed pass populates the disk tier; a fresh service over the same
  // directory then cold-starts from disk (RAM empty); repeats hit RAM. This
  // is the restart / eviction recovery path the disk tier exists for.
  std::printf("== cache-tier sweep (2 workers, %zu distinct products) ==\n", universe.size());
  TierSweep tiers;
  const std::string disk_dir = dir + "/disk_tier";
  {
    serve::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.cache_bytes = 512u << 20;
    {
      serve::GranuleService rebuild_svc(cfg, config, campaign.corrections(), index,
                                        model_factory, scaler);
      const TrafficResult rebuild = drive(rebuild_svc, cold_universe, 2);
      tiers.rebuild_mean_ms = rebuild.mean();
      tiers.rebuild_p99_ms = rebuild.p99();
      cold_resumed += rebuild_svc.metrics().resumed_builds;
    }
    cfg.disk_cache_dir = disk_dir;
    {
      serve::GranuleService fill_svc(cfg, config, campaign.corrections(), index, model_factory,
                                     scaler);
      (void)drive(fill_svc, universe, 2);  // untimed
      fill_svc.wait_disk_writebacks();     // every product lands on disk
    }
    serve::GranuleService warm_svc(cfg, config, campaign.corrections(), index, model_factory,
                                   scaler);
    const TrafficResult warm_disk = drive(warm_svc, universe, 2);
    tiers.warm_disk_mean_ms = warm_disk.mean();
    tiers.warm_disk_p99_ms = warm_disk.p99();
    const TrafficResult warm_ram = drive(warm_svc, universe, 2);
    tiers.warm_ram_mean_ms = warm_ram.mean();
    tiers.warm_ram_p99_ms = warm_ram.p99();
    const auto m = warm_svc.metrics();
    tiers.disk_hits = m.disk.hits;
    tiers.disk_bytes = m.disk.bytes;
  }
  util::Table tier_table("Cache tiers: mean / p99 per-request latency");
  tier_table.set_header({"tier", "mean ms", "p99 ms", "vs rebuild"});
  tier_table.add_row({"full rebuild", std::to_string(tiers.rebuild_mean_ms).substr(0, 7),
                      std::to_string(tiers.rebuild_p99_ms).substr(0, 7), "1x"});
  tier_table.add_row({"warm disk (cold start)",
                      std::to_string(tiers.warm_disk_mean_ms).substr(0, 7),
                      std::to_string(tiers.warm_disk_p99_ms).substr(0, 7),
                      std::to_string(tiers.disk_speedup()).substr(0, 7) + "x"});
  tier_table.add_row({"warm RAM", std::to_string(tiers.warm_ram_mean_ms).substr(0, 7),
                      std::to_string(tiers.warm_ram_p99_ms).substr(0, 7),
                      std::to_string(tiers.warm_ram_mean_ms > 0
                                         ? tiers.rebuild_mean_ms / tiers.warm_ram_mean_ms
                                         : 0.0)
                              .substr(0, 7) +
                          "x"});
  std::printf("%s\n", tier_table.to_string().c_str());

  // Priority mix under saturation: one worker, a tiny queue, load-shedding
  // submits from four clients with a 20/30/50 interactive/batch/background
  // mix. Background must absorb most of the shedding; interactive latency
  // stays bounded by the weighted dequeue.
  std::printf("== priority mix (1 worker, queue=4, 200 try_submits) ==\n");
  std::array<ClassRow, serve::kPriorityClasses> class_rows{};
  {
    serve::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 4;
    cfg.cache_bytes = 1;  // ~no RAM tier: every distinct key keeps rebuilding
    cfg.cache_shards = 1;
    serve::GranuleService service(cfg, config, campaign.corrections(), index, model_factory,
                                  scaler);
    // Fire-and-forget so the queue actually saturates (a client that waits
    // for each response self-throttles to the build rate and nothing sheds).
    std::vector<std::vector<serve::ProductFuture>> futures(4);
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        util::Rng rng(42 + c);
        for (int i = 0; i < 50; ++i) {
          serve::ProductRequest r = universe[rng.next() % universe.size()];
          const double u = rng.uniform();
          r.priority = u < 0.2   ? serve::Priority::interactive
                       : u < 0.5 ? serve::Priority::batch
                                 : serve::Priority::background;
          if (auto f = service.try_submit(r)) futures[static_cast<std::size_t>(c)].push_back(*f);
        }
      });
    }
    for (auto& t : clients) t.join();
    std::size_t displaced_waits = 0;
    for (auto& v : futures)
      for (auto& f : v) {
        try {
          (void)f.get();
        } catch (const serve::ShedError&) {
          ++displaced_waits;  // queued job displaced by a higher class
        }
      }
    std::printf("futures that saw ShedError: %zu\n", displaced_waits);
    const auto m = service.metrics();
    util::Table prio("Priority classes under saturation");
    prio.set_header({"class", "requests", "shed", "mean ms", "max ms"});
    for (std::size_t c = 0; c < serve::kPriorityClasses; ++c) {
      class_rows[c].requests = m.by_class[c].requests;
      class_rows[c].shed = m.scheduler.shed_by_class[c];
      class_rows[c].mean_ms = m.by_class[c].latency.stats.mean();
      class_rows[c].max_ms = m.by_class[c].latency.stats.max();
      prio.add_row({serve::priority_name(static_cast<serve::Priority>(c)),
                    std::to_string(class_rows[c].requests), std::to_string(class_rows[c].shed),
                    std::to_string(class_rows[c].mean_ms).substr(0, 7),
                    std::to_string(class_rows[c].max_ms).substr(0, 7)});
    }
    std::printf("%s\n", prio.to_string().c_str());
  }

  // Cluster SLO sweep: a 3-node fleet (shared disk tier, hot-key
  // replication) under the open-loop Poisson/Zipf/burst loadgen, sweeping
  // offered QPS against one reused cluster. Node caches are deliberately
  // small (4 products) so the Zipf tail keeps rebuilding and the queues
  // actually saturate at the high offered points — that is where the
  // shed-rate curve comes from.
  std::printf("== cluster SLO sweep (3 nodes x 1 worker, open-loop Poisson/Zipf) ==\n");
  ClusterSection cluster_section;
  std::string cluster_prom_text;
  {
    serve::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.vnodes = 128;
    ccfg.replication_factor = 2;
    ccfg.hot_key_threshold = 4;
    ccfg.shared_disk_dir = dir + "/cluster_disk";
    ccfg.node.workers = 1;
    ccfg.node.queue_capacity = 4;
    ccfg.node.cache_bytes = one_product_bytes * 2;
    ccfg.node.cache_shards = 1;
    cluster_section.config = ccfg;
    serve::Cluster cluster(ccfg, config, campaign.corrections(), index, model_factory, scaler);

    // Deterministic peer-fetch demonstration before the stochastic sweep:
    // sequential submits of the Zipf head cross hot_key_threshold, then
    // round-robin over the replica set — the first off-owner route misses
    // its RAM tier and fetches the resident product from the owner.
    for (std::uint64_t i = 0; i < ccfg.hot_key_threshold * 2; ++i)
      (void)cluster.submit(universe[0]).get();

    bench::LoadgenConfig lg;
    lg.duration_s = 1.0;
    lg.zipf_s = 1.1;
    lg.burst_factor = 4.0;
    lg.burst_every_s = 0.5;
    lg.burst_len_s = 0.1;
    lg.clients = 3;
    const auto submit = [&cluster](const serve::ProductRequest& r,
                                   std::optional<serve::Priority>* shed) {
      return cluster.try_submit(r, shed);
    };
    util::Table slo("Cluster SLO curve (open loop, Zipf s=1.1, 4x bursts)");
    slo.set_header({"offered QPS", "achieved", "p50 ms", "p99 ms", "shed rate", "imbalance"});
    for (const double offered : {100.0, 800.0, 6400.0}) {
      lg.offered_qps = offered;
      lg.seed = 11 + static_cast<std::uint64_t>(offered);
      const bench::LoadgenResult r = bench::run_open_loop(lg, universe, submit);
      cluster_section.curve.push_back(r);
      slo.add_row({std::to_string(r.offered_qps).substr(0, 7),
                   std::to_string(r.achieved_qps).substr(0, 7),
                   std::to_string(r.p50()).substr(0, 7), std::to_string(r.p99()).substr(0, 7),
                   std::to_string(r.shed_rate()).substr(0, 5),
                   std::to_string(cluster.metrics().imbalance()).substr(0, 5)});
    }
    cluster_section.metrics = cluster.metrics();
    std::printf("%s\n", slo.to_string().c_str());
    std::printf(
        "router: %llu routed, %llu peer probes -> %llu peer fetches, %llu hot keys, "
        "%llu replica routes, imbalance %.3f\n\n",
        static_cast<unsigned long long>(cluster_section.metrics.requests),
        static_cast<unsigned long long>(cluster_section.metrics.peer_probes),
        static_cast<unsigned long long>(cluster_section.metrics.peer_fetches),
        static_cast<unsigned long long>(cluster_section.metrics.hot_keys),
        static_cast<unsigned long long>(cluster_section.metrics.replica_routes),
        cluster_section.metrics.imbalance());
    // Node-labeled fleet exposition for the CI lint (check_prometheus.py
    // --require-node-label), captured before the nodes drain.
    cluster_prom_text = obs::to_prometheus(cluster.obs_snapshot());
    cluster.shutdown();
  }

  // Chaos run: the same fleet shape, warmed, then swept under an armed
  // fault plan — every disk read/write fails with 3% probability (seeded,
  // reproducible) — with node 1 quarantined before the second offered point
  // and revived after it. Load is modest on purpose: availability here is
  // earned by the retry/failover/self-healing layer, not lost to deliberate
  // overload shedding (the SLO sweep above owns that regime).
  std::printf("== chaos sweep (3 nodes, 3%% disk faults, mid-sweep quarantine) ==\n");
  ChaosSection chaos_section;
  {
    serve::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.vnodes = 128;
    ccfg.replication_factor = 2;
    ccfg.hot_key_threshold = 4;
    ccfg.quarantine_after = 3;
    ccfg.shared_disk_dir = dir + "/chaos_disk";
    ccfg.node.workers = 2;
    ccfg.node.queue_capacity = 64;
    // RAM holds ~3 of each node's ~8 owned+replica products: the Zipf tail
    // spills to the disk tier every episode, so the armed disk fault sites
    // see real traffic instead of an all-RAM run that never reaches them.
    ccfg.node.cache_bytes = one_product_bytes * 3;
    serve::Cluster cluster(ccfg, config, campaign.corrections(), index, model_factory, scaler);

    // Warm every key once (RAM + disk tiers populated) so the storm hits a
    // serving fleet, not a cold start.
    for (const auto& r : universe) (void)cluster.submit(r).get();
    cluster.wait_disk_writebacks();

    chaos_section.disk_fault_rate = 0.03;
    util::fault::Plan plan(2026);
    util::fault::SiteConfig disk_fault;
    disk_fault.fail_rate = chaos_section.disk_fault_rate;
    plan.on("disk.read", disk_fault);
    plan.on("disk.write", disk_fault);
    util::fault::Armed armed(plan);

    bench::LoadgenConfig lg;
    lg.duration_s = 1.0;
    lg.zipf_s = 1.1;
    lg.burst_factor = 2.0;
    lg.burst_every_s = 0.5;
    lg.burst_len_s = 0.1;
    lg.clients = 3;
    lg.deadline_ms = 500.0;  // generous budget: exercises the plumbing,
                             // only a truly wedged job expires
    const auto submit = [&cluster](const serve::ProductRequest& r,
                                   std::optional<serve::Priority>* shed) {
      return cluster.try_submit(r, shed);
    };
    util::Table chaos_table("Chaos sweep (3% disk faults; node 1 out for the 2nd point)");
    chaos_table.set_header({"offered QPS", "served", "offered", "availability", "p99 ms"});
    const std::array<double, 3> offered_points{100.0, 400.0, 400.0};
    for (std::size_t i = 0; i < offered_points.size(); ++i) {
      if (i == 1) cluster.quarantine_node(1);  // mid-sweep fault: node flaps out
      if (i == 2) {
        cluster.revive_node(1);  // heals: ring restored bit-exactly
        (void)cluster.probe_health();
      }
      lg.offered_qps = offered_points[i];
      lg.seed = 77 + static_cast<std::uint64_t>(offered_points[i]) + i;
      const bench::LoadgenResult r = bench::run_open_loop(lg, universe, submit);
      chaos_section.curve.push_back(r);
      const double avail =
          r.offered ? static_cast<double>(r.served) / static_cast<double>(r.offered) : 0.0;
      chaos_table.add_row({std::to_string(r.offered_qps).substr(0, 7), std::to_string(r.served),
                           std::to_string(r.offered), std::to_string(avail).substr(0, 7),
                           std::to_string(r.p99()).substr(0, 7)});
    }
    chaos_section.injected_disk_read = plan.failures("disk.read");
    chaos_section.injected_disk_write = plan.failures("disk.write");
    chaos_section.metrics = cluster.metrics();
    std::printf("%s\n", chaos_table.to_string().c_str());
    std::printf(
        "chaos: %llu/%llu served (availability %.4f), %llu disk.read + %llu disk.write "
        "faults injected, %llu disk-read retries, %llu node failures, %llu quarantines, "
        "%llu revives, %llu keys re-replicated\n\n",
        static_cast<unsigned long long>(chaos_section.served()),
        static_cast<unsigned long long>(chaos_section.offered()), chaos_section.availability(),
        static_cast<unsigned long long>(chaos_section.injected_disk_read),
        static_cast<unsigned long long>(chaos_section.injected_disk_write),
        static_cast<unsigned long long>(chaos_section.metrics.shared_disk.disk_read_retries),
        static_cast<unsigned long long>(chaos_section.metrics.node_failures),
        static_cast<unsigned long long>(chaos_section.metrics.quarantines),
        static_cast<unsigned long long>(chaos_section.metrics.revives),
        static_cast<unsigned long long>(chaos_section.metrics.rereplicated_keys));
    cluster.shutdown();
  }

  // Warm RAM-hit tracing overhead: the same repeat traffic against a fully
  // warmed cache, with the tracer at full sample rate vs sampling disabled.
  // Min-of-3 trials per side so a stray scheduler hiccup cannot fail CI.
  std::printf("== warm-hit tracing overhead (2 workers, %zu requests x %d trials) ==\n",
              warm_requests, TraceOverhead::kTrials);
  TraceOverhead overhead;
  {
    auto warm_hit_mean = [&](double sample_rate) {
      serve::ServiceConfig cfg;
      cfg.workers = 2;
      cfg.cache_bytes = 512u << 20;
      cfg.trace_sample_rate = sample_rate;
      serve::GranuleService service(cfg, config, campaign.corrections(), index, model_factory,
                                    scaler);
      (void)drive(service, universe, 2);  // populate the RAM tier
      double best = 0.0;
      for (int trial = 0; trial < TraceOverhead::kTrials; ++trial) {
        const double mean = drive(service, warm_traffic, 4).mean();
        if (trial == 0 || mean < best) best = mean;
      }
      return best;
    };
    overhead.untraced_mean_ms = warm_hit_mean(0.0);
    overhead.traced_mean_ms = warm_hit_mean(1.0);
    std::printf("warm hit mean: traced %.4f ms vs untraced %.4f ms (%.3fx)\n\n",
                overhead.traced_mean_ms, overhead.untraced_mean_ms, overhead.ratio());
  }

  if (!json_path.empty()) {
    write_json(json_path, worker_rows, sweep_rows, tiers, class_rows, overhead,
               cluster_section, chaos_section);
    // The CI artifacts next to the summary: Prometheus exposition of the
    // last worker run's registry, the cluster's node-labeled merged
    // exposition (both linted by tools/check_prometheus.py) and the span
    // ring as a Perfetto-loadable trace.
    const std::string stem = std::filesystem::path(json_path).replace_extension().string();
    std::ofstream prom(stem + ".prom", std::ios::trunc);
    prom << prom_text;
    std::ofstream cluster_prom(stem + ".cluster.prom", std::ios::trunc);
    cluster_prom << cluster_prom_text;
    std::ofstream trace(stem + ".trace.json", std::ios::trunc);
    trace << perfetto_text;
    std::printf("wrote %s.prom, %s.cluster.prom and %s.trace.json\n", stem.c_str(),
                stem.c_str(), stem.c_str());
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // Tripwire: the cold and full-rebuild rows must time from-shards builds.
  if (cold_resumed > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu builds of the cold / full-rebuild passes resumed from a cached "
                 "product — those rows no longer time from-shards builds\n",
                 static_cast<unsigned long long>(cold_resumed));
    return 1;
  }
  std::printf("cold and full-rebuild passes: every request built from the shards\n");

  // Tripwire: the disk tier must keep paying for itself.
  if (tiers.disk_speedup() < 5.0) {
    std::fprintf(stderr,
                 "FAIL: warm-disk cold start only %.2fx faster than full rebuild "
                 "(need >= 5x): rebuild %.2f ms vs warm-disk %.2f ms\n",
                 tiers.disk_speedup(), tiers.rebuild_mean_ms, tiers.warm_disk_mean_ms);
    return 1;
  }
  std::printf("warm-disk cold start: %.1fx faster than full rebuild (>= 5x required)\n",
              tiers.disk_speedup());

  // Tripwire: tracing must stay effectively free on the warm RAM-hit path.
  if (!overhead.ok()) {
    std::fprintf(stderr,
                 "FAIL: full-rate tracing slows warm RAM hits by %.1f%% (traced %.4f ms "
                 "vs untraced %.4f ms; need <= 2%% + 5 us)\n",
                 (overhead.ratio() - 1.0) * 100.0, overhead.traced_mean_ms,
                 overhead.untraced_mean_ms);
    return 1;
  }
  std::printf("warm-hit tracing overhead: %+.4f ms (%.2f%%) — within the 2%% + 5 us budget\n",
              overhead.traced_mean_ms - overhead.untraced_mean_ms,
              (overhead.ratio() - 1.0) * 100.0);

  // Tripwire: the router must have moved at least one product across peers
  // (the deterministic hot-key demo guarantees the opportunity).
  if (cluster_section.metrics.peer_fetches == 0) {
    std::fprintf(stderr,
                 "FAIL: cluster run recorded zero peer fetches (%llu probes) — the "
                 "replica-probe-before-rebuild path is dead\n",
                 static_cast<unsigned long long>(cluster_section.metrics.peer_probes));
    return 1;
  }
  std::printf("cluster peer fetch: %llu of %llu probes hit a replica RAM tier\n",
              static_cast<unsigned long long>(cluster_section.metrics.peer_fetches),
              static_cast<unsigned long long>(cluster_section.metrics.peer_probes));

  // Tripwire: the robustness layer must hold availability through the storm.
  if (chaos_section.availability() < 0.99) {
    std::fprintf(stderr,
                 "FAIL: chaos availability %.4f (served %llu of %llu) under %.0f%% disk "
                 "faults + quarantine (need >= 0.99)\n",
                 chaos_section.availability(),
                 static_cast<unsigned long long>(chaos_section.served()),
                 static_cast<unsigned long long>(chaos_section.offered()),
                 chaos_section.disk_fault_rate * 100.0);
    return 1;
  }
  std::printf("chaos availability: %.4f under %.0f%% disk faults + mid-sweep quarantine "
              "(>= 0.99 required)\n",
              chaos_section.availability(), chaos_section.disk_fault_rate * 100.0);
  return 0;
}
