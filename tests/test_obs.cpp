// Observability subsystem tests: registry instrument exactness under
// concurrency, histogram snapshot consistency and edge clamping, trace-ring
// overflow and seqlock tearing resistance, tail-based sampling, coalesced
// requests sharing one trace id, the Prometheus exposition format (linted
// in-process, the same rules tools/check_prometheus.py enforces in CI), a
// structural check of the Perfetto export for one cold freeboard build
// (root + queue_wait + all seven pipeline stage spans, correctly nested),
// cache-tier counters exact in the registry without a stats() refresh,
// histogram percentile estimates vs exact order statistics (and the JSON
// export reporting the same ones), and the util::logf sink/prefix contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "obs/export.hpp"
#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/disk_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using obs::HistogramMetric;
using obs::Registry;
using obs::Span;
using obs::TraceConfig;
using obs::TraceContext;
using obs::Tracer;
using serve::GranuleProduct;
using serve::Priority;
using serve::ProductKey;
using serve::ProductRequest;
using serve::ProductResponse;

// ---------------------------------------------------------------------------
// Instruments + Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentCounterIncrementsAreExact) {
  Registry reg;
  obs::Counter& a = reg.counter("is2_test_a_total");
  obs::Counter& b = reg.counter("is2_test_b_total", {{"class", "x"}});
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        a.inc();
        if (i % 2 == 0) b.inc(3);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(a.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(b.value(), static_cast<std::uint64_t>(kThreads) * (kIters / 2) * 3);
}

TEST(ObsRegistry, GetOrCreateIsStableAndTypeChecked) {
  Registry reg;
  obs::Counter& c1 = reg.counter("is2_test_x_total", {{"class", "interactive"}});
  obs::Counter& c2 = reg.counter("is2_test_x_total", {{"class", "interactive"}});
  EXPECT_EQ(&c1, &c2);  // one instrument per (name, labels)
  obs::Counter& other = reg.counter("is2_test_x_total", {{"class", "batch"}});
  EXPECT_NE(&c1, &other);

  EXPECT_THROW(reg.counter("is2_test_no_suffix"), std::invalid_argument);
  EXPECT_THROW(reg.counter("bad name_total"), std::invalid_argument);
  EXPECT_THROW(reg.counter("1leading_total"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("is2_test_x_total", {{"class", "interactive"}}),
               std::invalid_argument);  // type conflict
  EXPECT_THROW(reg.counter("is2_test_y_total", {{"bad-label", "v"}}), std::invalid_argument);
}

TEST(ObsRegistry, SnapshotIsSortedByNameThenLabels) {
  Registry reg;
  reg.gauge("is2_zz");
  reg.counter("is2_aa_total", {{"class", "interactive"}});
  reg.counter("is2_aa_total", {{"class", "batch"}});
  reg.histogram("is2_mm_ms");
  const obs::RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.points.size(), 4u);
  for (std::size_t i = 1; i < snap.points.size(); ++i) {
    const auto& a = snap.points[i - 1];
    const auto& b = snap.points[i];
    EXPECT_TRUE(std::pair(a.name, a.labels) < std::pair(b.name, b.labels));
  }
}

TEST(ObsInstruments, HistogramSnapshotIsInternallyConsistent) {
  HistogramMetric metric;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      util::Rng rng(1234);
      while (!stop.load(std::memory_order_relaxed)) metric.observe(rng.uniform(0.1, 10.0));
    });
  // A snapshot must never observe the stats and the histogram out of step,
  // no matter when it lands relative to the writers.
  for (int i = 0; i < 200; ++i) {
    const HistogramMetric::Snapshot snap = metric.snapshot();
    EXPECT_EQ(snap.stats.count(), snap.histogram.total());
  }
  stop = true;
  for (auto& w : writers) w.join();

  // Samples outside [10 us, 100 s] clamp into the edge bins while the stats
  // keep the true values.
  metric.observe(1e-3);
  metric.observe(1e6);
  const HistogramMetric::Snapshot snap = metric.snapshot();
  EXPECT_EQ(snap.stats.count(), snap.histogram.total());
  EXPECT_EQ(snap.histogram.count(0), 1u);
  EXPECT_EQ(snap.histogram.count(snap.histogram.bins() - 1), 1u);
  EXPECT_EQ(snap.stats.min(), 1e-3);
  EXPECT_EQ(snap.stats.max(), 1e6);
}

// ---------------------------------------------------------------------------
// Tracer ring
// ---------------------------------------------------------------------------

TEST(ObsTracer, RingOverflowKeepsNewestSpans) {
  Tracer tracer(TraceConfig{64, 1.0, 1e9});
  for (std::uint32_t i = 0; i < 200; ++i) {
    Span s;
    s.trace_id = 1;
    s.span_id = i;
    s.set_name("seq");
    tracer.publish(&s, 1);
  }
  EXPECT_EQ(tracer.published(), 200u);
  const std::vector<Span> got = tracer.spans();
  ASSERT_EQ(got.size(), 64u);  // capacity bounds retention, newest win
  for (std::size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j].span_id, 136u + j);
}

TEST(ObsTracer, ConcurrentPublishNeverBlocksOrTears) {
  Tracer tracer(TraceConfig{128, 1.0, 1e9});
  constexpr int kWriters = 4, kSpansEach = 20000;
  std::atomic<bool> stop_reader{false};
  // Reader hammers spans() while writers overflow the ring many times over;
  // the seqlock must only ever hand back internally consistent spans.
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      for (const Span& s : tracer.spans()) {
        const std::uint64_t writer = s.trace_id >> 32;
        const std::uint64_t seq = s.trace_id & 0xffffffffu;
        EXPECT_LT(writer, static_cast<std::uint64_t>(kWriters));
        EXPECT_EQ(s.span_id, static_cast<std::uint32_t>(seq));  // fields agree
        EXPECT_STREQ(s.name, ("w" + std::to_string(writer)).c_str());
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&tracer, t] {
      const std::string name = "w" + std::to_string(t);
      for (std::uint32_t i = 0; i < kSpansEach; ++i) {
        Span s;
        s.trace_id = (static_cast<std::uint64_t>(t) << 32) | i;
        s.span_id = i;
        s.set_name(name.c_str());
        tracer.publish(&s, 1);  // must never block, full ring or not
      }
    });
  for (auto& w : writers) w.join();
  stop_reader = true;
  reader.join();
  EXPECT_EQ(tracer.published(), static_cast<std::uint64_t>(kWriters) * kSpansEach);
  EXPECT_LE(tracer.spans().size(), 128u);
}

TEST(ObsTracer, TailSamplingDropsUnsampledKeepsForcedAndInstants) {
  Tracer tracer(TraceConfig{256, 0.0, 1e9});  // sampling off, nothing "slow"
  {
    TraceContext ctx(tracer);
    const std::size_t h = ctx.open("work");
    ctx.close(h);
    ctx.finish("request");  // not sampled, not forced, not slow -> dropped
  }
  EXPECT_TRUE(tracer.spans().empty());

  TraceContext forced(tracer);
  const std::size_t h = forced.open("work");
  forced.close(h);
  forced.finish("request", /*force=*/true);  // error/shed path: always kept
  std::vector<Span> got = tracer.spans();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_STREQ(got[0].name, "request");
  EXPECT_EQ(got[0].span_id, TraceContext::kRootSpanId);
  EXPECT_STREQ(got[1].name, "work");
  EXPECT_EQ(got[1].parent_id, TraceContext::kRootSpanId);

  tracer.record_instant("coalesce", 42);  // instants bypass sampling entirely
  got = tracer.spans();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[2].instant);
  EXPECT_EQ(got[2].trace_id, 42u);
}

// ---------------------------------------------------------------------------
// Scheduler integration: coalesced requests share one trace
// ---------------------------------------------------------------------------

TEST(ObsScheduler, CoalescedRequestsShareTraceId) {
  Tracer tracer(TraceConfig{1024, 1.0, 1000.0});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  serve::BatchScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.tracer = &tracer;
  serve::BatchScheduler sched(cfg, [open](const ProductRequest&, const ProductKey& key) {
    open.wait();
    auto p = std::make_shared<GranuleProduct>();
    p->granule_id = key.granule_id;
    return ProductResponse{p, false, 0.0};
  });

  ProductRequest req;
  req.granule_id = "k1";
  const ProductKey key{"k1", BeamId::Gt1r, 7};
  auto f1 = sched.submit(req, key);
  auto f2 = sched.submit(req, key);  // coalesces onto the in-flight build
  EXPECT_EQ(sched.stats().coalesced, 1u);
  gate.set_value();
  const ProductResponse r1 = f1.get(), r2 = f2.get();
  EXPECT_NE(r1.trace_id, 0u);
  EXPECT_EQ(r1.trace_id, r2.trace_id);  // one build, one trace, shared by all
  sched.shutdown();

  const std::vector<Span> spans = tracer.spans();
  bool saw_root = false, saw_coalesce = false, saw_queue_wait = false;
  for (const Span& s : spans) {
    if (s.trace_id != r1.trace_id) continue;
    if (!s.instant && std::string(s.name) == "request") saw_root = true;
    if (!s.instant && std::string(s.name) == "queue_wait") saw_queue_wait = true;
    if (s.instant && std::string(s.name) == "coalesce") saw_coalesce = true;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_coalesce);  // the coalesced waiter left an instant marker
}

// ---------------------------------------------------------------------------
// Histogram snapshot percentiles
// ---------------------------------------------------------------------------

TEST(HistogramPercentiles, DegenerateDistributionIsExact) {
  HistogramMetric metric;
  for (int i = 0; i < 100; ++i) metric.observe(5.0);
  const HistogramMetric::Snapshot lat = metric.snapshot();
  // The min/max clamp collapses the bin-resolution error entirely here.
  EXPECT_DOUBLE_EQ(lat.p50_ms(), 5.0);
  EXPECT_DOUBLE_EQ(lat.p99_ms(), 5.0);
  EXPECT_EQ(HistogramMetric::Snapshot{}.p99_ms(), 0.0);  // no samples
}

TEST(HistogramPercentiles, JsonExportReportsTheSnapshotQuantiles) {
  Registry reg;
  HistogramMetric& h = reg.histogram("is2_test_latency_ms");
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  const std::string json = obs::to_json(reg.snapshot());
  const auto field = [&json](const char* name) {
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t at = json.find(key);
    EXPECT_NE(at, std::string::npos) << name;
    return at == std::string::npos ? -1.0 : std::stod(json.substr(at + key.size()));
  };
  const HistogramMetric::Snapshot snap = h.snapshot();
  EXPECT_EQ(field("p50_ms"), snap.p50_ms());  // 5, not a bin interpolation below the min
  EXPECT_EQ(field("p99_ms"), snap.p99_ms());
  EXPECT_EQ(field("min_ms"), 5.0);
}

TEST(HistogramPercentiles, TracksExactOrderStatisticsWithinBinResolution) {
  HistogramMetric metric;
  std::vector<double> values;
  util::Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const double ms = std::pow(10.0, rng.uniform(-1.0, 3.0));  // 0.1ms .. 1s
    values.push_back(ms);
    metric.observe(ms);
  }
  const HistogramMetric::Snapshot lat = metric.snapshot();
  std::sort(values.begin(), values.end());
  // 10 bins per decade bounds the estimate within a factor of 10^0.1 (~26%)
  // of the exact order statistic; allow a whisker more for interpolation.
  const double kFactor = std::pow(10.0, 0.12);
  for (const double p : {50.0, 99.0}) {
    const double exact =
        values[static_cast<std::size_t>(p / 100.0 * (values.size() - 1))];
    const double est = lat.percentile_ms(p);
    EXPECT_LE(est, exact * kFactor) << "p" << p;
    EXPECT_GE(est, exact / kFactor) << "p" << p;
  }
}

// ---------------------------------------------------------------------------
// util::logf sink + prefix contract
// ---------------------------------------------------------------------------

TEST(Logging, SinkCapturesLevelLabelAndTraceId) {
  std::vector<std::pair<util::LogLevel, std::string>> lines;
  util::set_log_sink([&lines](util::LogLevel level, std::string_view line) {
    lines.emplace_back(level, std::string(line));
  });
  util::set_thread_label("obs-test/0");
  Tracer tracer(TraceConfig{16, 1.0, 1e9});
  TraceContext ctx(tracer);
  {
    obs::TraceBinding bind(&ctx);
    IS2_LOG_WARN("hello %d", 7);
  }
  IS2_LOG_ERROR("after unbind");
  util::set_log_sink(nullptr);  // restore stderr for later tests
  util::set_thread_label("");

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].first, util::LogLevel::Warn);
  const std::string& l0 = lines[0].second;
  EXPECT_NE(l0.find("[WARN +"), std::string::npos);         // level + uptime
  EXPECT_NE(l0.find("obs-test/0"), std::string::npos);      // thread label
  EXPECT_NE(l0.find("trace=" + std::to_string(ctx.trace_id())), std::string::npos);
  EXPECT_NE(l0.find("] hello 7"), std::string::npos);
  EXPECT_EQ(l0.find('\n'), std::string::npos);  // sink gets no trailing newline
  // Outside the binding the trace tag disappears.
  EXPECT_EQ(lines[1].second.find("trace="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Mini JSON validator (structural: quoting, nesting, no trailing garbage)
// ---------------------------------------------------------------------------

bool json_well_formed(const std::string& text) {
  int depth = 0;
  bool in_string = false, escape = false;
  for (const char c : text) {
    if (in_string) {
      if (escape) escape = false;
      else if (c == '\\') escape = true;
      else if (c == '"') in_string = false;
      else if (c == '\n') return false;  // raw newline inside a string
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

// ---------------------------------------------------------------------------
// Prometheus exposition lint (the same rules tools/check_prometheus.py
// enforces on the bench's exported snapshot in CI)
// ---------------------------------------------------------------------------

void lint_prometheus(const std::string& text) {
  std::map<std::string, std::string> typed;  // base name -> TYPE
  std::map<std::string, std::size_t> last_bucket;  // series (sans le) -> cum
  std::size_t samples = 0;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    SCOPED_TRACE("line " + std::to_string(line_no) + ": " + line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      ASSERT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0);
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        ASSERT_NE(sp, std::string::npos);
        const std::string type = rest.substr(sp + 1);
        ASSERT_TRUE(type == "counter" || type == "gauge" || type == "histogram");
        typed[rest.substr(0, sp)] = type;
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos);
    const std::string name = line.substr(0, name_end);
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool alpha =
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
      ASSERT_TRUE(alpha || (i > 0 && c >= '0' && c <= '9')) << "bad name char";
    }
    std::string labels;
    std::size_t value_at = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos);
      labels = line.substr(name_end, close - name_end + 1);
      value_at = close + 1;
    }
    ASSERT_EQ(line[value_at], ' ');
    const std::string value_str = line.substr(value_at + 1);
    ASSERT_FALSE(value_str.empty());
    std::size_t pos = 0;
    const double value = std::stod(value_str, &pos);  // throws on garbage
    ASSERT_EQ(pos, value_str.size()) << "trailing junk after value";
    ++samples;

    // Resolve the base family: histograms expose _bucket/_sum/_count.
    std::string base = name;
    bool is_bucket = false;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string candidate = name.substr(0, name.size() - s.size());
        if (typed.count(candidate) && typed[candidate] == "histogram") {
          base = candidate;
          is_bucket = (s == "_bucket");
        }
      }
    }
    ASSERT_TRUE(typed.count(base)) << "sample before its # TYPE";
    if (typed[base] == "counter") {
      EXPECT_TRUE(base.size() > 6 && base.compare(base.size() - 6, 6, "_total") == 0)
          << "counter without _total";
      EXPECT_GE(value, 0.0);
    }
    if (is_bucket) {
      // Cumulative buckets must be non-decreasing within one series.
      std::string series = base + labels;
      const std::size_t le = series.find("le=\"");
      ASSERT_NE(le, std::string::npos) << "_bucket without le";
      const std::size_t le_end = series.find('"', le + 4);
      series.erase(le, le_end - le + 1);
      const auto cum = static_cast<std::size_t>(value);
      auto it = last_bucket.find(series);
      if (it != last_bucket.end()) EXPECT_GE(cum, it->second) << "bucket not cumulative";
      last_bucket[series] = cum;
    }
  }
  EXPECT_GT(samples, 0u);
}

TEST(ObsExport, PrometheusOutputPassesLint) {
  Registry reg;
  reg.counter("is2_test_requests_total", {{"class", "interactive"}}, "requests").inc(5);
  reg.counter("is2_test_requests_total", {{"class", "batch"}}, "requests").inc(2);
  reg.gauge("is2_test_depth", {}, "queue depth").set(3.5);
  HistogramMetric& h = reg.histogram("is2_test_latency_ms", {{"stage", "load"}}, "latency");
  h.observe(0.5);
  h.observe(12.0);
  h.observe(250.0);
  const std::string text = obs::to_prometheus(reg.snapshot());
  lint_prometheus(text);
  // Spot checks: exposition carries the exact values and the +Inf bucket.
  EXPECT_NE(text.find("is2_test_requests_total{class=\"batch\"} 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("is2_test_latency_ms_count{stage=\"load\"} 3"), std::string::npos);
  EXPECT_TRUE(json_well_formed(obs::to_json(reg.snapshot())));
}

// ---------------------------------------------------------------------------
// GranuleService end-to-end: one cold freeboard build's trace + exposition
// ---------------------------------------------------------------------------

/// Slim port of test_serve's campaign fixture: one simulated granule written
/// as chunk shards, a scaler fitted the way the batch pipeline would.
class ObsCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    pair_ = new core::PairDataset(campaign_->generate(1));

    dir_ = (std::filesystem::temp_directory_path() /
            ("is2_obs_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    shards_ = new core::ShardSet();
    core::write_shards(pair_->granule, 0, /*chunks_per_beam=*/2, dir_, *shards_);
    index_ = new serve::ShardIndex(serve::ShardIndex::build(shards_->files));

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
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
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

  static nn::Sequential make_model() {
    util::Rng rng(99);
    return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
  }

  static std::unique_ptr<serve::GranuleService> make_service(serve::ServiceConfig cfg) {
    return std::make_unique<serve::GranuleService>(cfg, *config_, campaign_->corrections(),
                                                   *index_, &ObsCampaign::make_model,
                                                   *scaler_);
  }

  static ProductRequest request(BeamId beam) {
    ProductRequest r;
    r.granule_id = pair_->granule.id;
    r.beam = beam;
    return r;
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static core::PairDataset* pair_;
  static core::ShardSet* shards_;
  static serve::ShardIndex* index_;
  static resample::FeatureScaler* scaler_;
  static std::string dir_;
};

core::PipelineConfig* ObsCampaign::config_ = nullptr;
core::Campaign* ObsCampaign::campaign_ = nullptr;
core::PairDataset* ObsCampaign::pair_ = nullptr;
core::ShardSet* ObsCampaign::shards_ = nullptr;
serve::ShardIndex* ObsCampaign::index_ = nullptr;
resample::FeatureScaler* ObsCampaign::scaler_ = nullptr;
std::string ObsCampaign::dir_;

TEST_F(ObsCampaign, ColdFreeboardBuildEmitsNestedTrace) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.trace_sample_rate = 1.0;
  auto service = make_service(cfg);

  const ProductResponse r = service->submit(request(BeamId::Gt1r)).get();
  ASSERT_NE(r.product, nullptr);
  EXPECT_FALSE(r.from_cache);
  ASSERT_NE(r.trace_id, 0u);
  EXPECT_GE(r.queue_wait_ms, 0.0);
  EXPECT_GE(r.service_ms, r.queue_wait_ms);

  std::vector<Span> mine;
  for (const Span& s : service->trace_spans())
    if (s.trace_id == r.trace_id && !s.instant) mine.push_back(s);

  // Exactly one root, named "request", parent 0.
  const Span* root = nullptr;
  for (const Span& s : mine)
    if (s.parent_id == 0) {
      EXPECT_EQ(root, nullptr) << "two roots";
      root = &s;
    }
  ASSERT_NE(root, nullptr);
  EXPECT_STREQ(root->name, "request");
  EXPECT_EQ(root->span_id, TraceContext::kRootSpanId);

  // queue_wait + shard_load + all seven pipeline stages, each a direct child
  // of the root and fully contained in the root's interval.
  const char* expected[] = {"queue_wait", "shard_load",  "preprocess",
                            "resample",   "fpb",         "features",
                            "classify",   "seasurface",  "freeboard"};
  std::map<std::string, const Span*> by_name;
  for (const Span& s : mine) by_name[s.name] = &s;
  for (const char* name : expected) {
    ASSERT_TRUE(by_name.count(name)) << "missing span: " << name;
    const Span& s = *by_name[name];
    EXPECT_EQ(s.parent_id, root->span_id) << name;
    EXPECT_NE(s.span_id, root->span_id) << name;
    EXPECT_GE(s.start_ms, root->start_ms) << name;
    EXPECT_LE(s.start_ms + s.dur_ms, root->start_ms + root->dur_ms) << name;
  }
  // The stage spans run in dependency order after the queue wait.
  const char* stages[] = {"preprocess", "resample", "fpb",      "features",
                          "classify",   "seasurface", "freeboard"};
  double prev_end = by_name["queue_wait"]->start_ms + by_name["queue_wait"]->dur_ms;
  for (const char* name : stages) {
    const Span& s = *by_name[name];
    EXPECT_GE(s.start_ms + 1e-9, prev_end) << name << " overlaps its predecessor";
    prev_end = s.start_ms + s.dur_ms;
  }

  // The Perfetto render of the same spans is structurally sound JSON with
  // the trace_event fields Perfetto needs.
  const std::string perfetto = obs::to_perfetto(service->trace_spans(), obs::thread_labels());
  EXPECT_TRUE(json_well_formed(perfetto));
  EXPECT_NE(perfetto.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"name\":\"freeboard\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"name\":\"thread_name\""), std::string::npos);
}

TEST_F(ObsCampaign, ServiceSnapshotPassesLintAndMatchesServiceMetrics) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  auto service = make_service(cfg);

  (void)service->submit(request(BeamId::Gt1r)).get();  // cold build
  (void)service->submit(request(BeamId::Gt1r)).get();  // RAM fast hit

  const std::string text = obs::to_prometheus(service->obs_snapshot());
  lint_prometheus(text);
  EXPECT_TRUE(json_well_formed(obs::to_json(service->obs_snapshot())));

  // The registry-read ServiceMetrics and the exposition agree on counts.
  const serve::ServiceMetrics m = service->metrics();
  EXPECT_EQ(m.requests, 2u);
  EXPECT_EQ(m.fast_hits, 1u);
  EXPECT_EQ(m.scheduler.dispatched, 1u);
  EXPECT_EQ(m.service_time.stats.count(), 1u);   // one scheduled job
  EXPECT_EQ(m.queue_wait.stats.count(), 1u);
  EXPECT_GE(m.service_time.stats.min(), m.queue_wait.stats.min());
  EXPECT_NE(text.find("is2_serve_fast_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("is2_sched_dispatched_total{class=\"batch\"} 1"), std::string::npos);
  EXPECT_NE(text.find("is2_cache_hits_total{tier=\"ram\"} 1"), std::string::npos);
  // The builder stages each saw exactly the one cold build.
  for (const auto& stage : m.builder) EXPECT_EQ(stage.stats.count(), 1u);
  EXPECT_EQ(m.total.stats.count(), 1u);
  EXPECT_NE(text.find("is2_serve_stage_ms_count{stage=\"classify\"} 1"), std::string::npos);
}

/// Value of the counter/gauge (name, labels) in a snapshot; -1 when absent.
double point_value(const obs::RegistrySnapshot& snap, const std::string& name,
                   const obs::Labels& labels) {
  for (const obs::MetricPoint& p : snap.points)
    if (p.name == name && p.labels == labels) return p.value;
  ADD_FAILURE() << "no point " << name;
  return -1.0;
}

TEST_F(ObsCampaign, RegistryCacheCountersAreExactWithoutRefresh) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = make_service(cfg);

  (void)service->submit(request(BeamId::Gt1r)).get();  // cold build
  ASSERT_EQ(service->submit(request(BeamId::Gt1r)).get().source, serve::ServedFrom::ram);

  // The raw registry, not obs_snapshot(): nothing has refreshed anything.
  const obs::RegistrySnapshot snap = service->registry().snapshot();
  const obs::Labels ram{{"tier", "ram"}};
  EXPECT_EQ(point_value(snap, "is2_cache_hits_total", ram), 1.0);
  // One cold request is one miss: the scheduled build re-checks RAM with a
  // peek, which counts nothing.
  EXPECT_EQ(point_value(snap, "is2_cache_misses_total", ram), 1.0);
  EXPECT_EQ(point_value(snap, "is2_cache_insertions_total", ram), 1.0);
}

TEST(ObsCacheTiers, DiskCacheCountsIntoRegistryAtTheEvent) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("is2_obs_disk_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  Registry reg;
  serve::DiskCache disk(serve::DiskCacheConfig{dir, 1u << 20, &reg});
  const ProductKey key{"g", BeamId::Gt1r, 7};
  GranuleProduct product;
  product.granule_id = key.granule_id;
  product.segments.resize(4);
  EXPECT_EQ(disk.get(key), nullptr);
  disk.put(key, product);
  ASSERT_NE(disk.get(key), nullptr);

  // Read before any stats() call: the counters moved at the events.
  const obs::RegistrySnapshot snap = reg.snapshot();
  const obs::Labels tier{{"tier", "disk"}};
  EXPECT_EQ(point_value(snap, "is2_cache_writes_total", tier), 1.0);
  EXPECT_EQ(point_value(snap, "is2_cache_hits_total", tier), 1.0);
  EXPECT_EQ(point_value(snap, "is2_cache_misses_total", tier), 1.0);
  const serve::DiskCacheStats stats = disk.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
