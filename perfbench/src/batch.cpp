// batch_freeboard: back-to-back Table V freeboard jobs over one shard set on
// a 2 executors × 2 cores map-reduce engine. Untraced, each job is one
// `core::run_freeboard_job` call. Traced, the same job is composed on the
// same engine from the public calls it is made of — h5lite load, builder
// stages, auto-labeling, sea surface, freeboard — each inside a span; its
// output must equal the library job's bit for bit.
#include <memory>

#include "h5lite/granule_io.hpp"
#include "mapred/engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perf {

using namespace is2;

namespace {

constexpr mapred::ClusterTopology kTopology{kBatchExecutors, 2};
/// Set-up is about one job long, so it is repeated five times (median
/// reported) where the other workloads' longer set-ups repeat three times.
constexpr int kSetupReps = 5;
/// The window runs past --seconds until this many jobs completed, so the
/// p75 tail keeps at least 10 jobs beyond it on a slow machine.
constexpr std::size_t kMinJobs = 48;

struct Reference {
  std::size_t points = 0;
  double mean_freeboard = 0.0;
  std::vector<std::size_t> histogram;
  std::size_t histogram_nan = 0;
};

Reference load_reference(const std::string& dir) {
  const KeyValues kv = load_kv(dir + "/batch_reference.txt");
  Reference ref;
  ref.points = std::stoull(kv.at("points"));
  ref.mean_freeboard = parse_double(kv.at("mean_freeboard"));
  ref.histogram_nan = std::stoull(kv.at("histogram_nan"));
  std::size_t pos = 0;
  const std::string& h = kv.at("histogram");
  while (pos <= h.size()) {
    const std::size_t comma = std::min(h.find(',', pos), h.size());
    ref.histogram.push_back(std::stoull(h.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return ref;
}

/// Bit-for-bit comparison of one job's output with the 1×1 reference.
bool matches(const core::FreeboardJobStats& job, const Reference& ref, std::string* why) {
  if (job.points != ref.points) {
    *why = "points " + std::to_string(job.points) + " != " + std::to_string(ref.points);
    return false;
  }
  if (hex_double(job.mean_freeboard) != hex_double(ref.mean_freeboard)) {
    *why = "mean freeboard " + hex_double(job.mean_freeboard) + " != " +
           hex_double(ref.mean_freeboard);
    return false;
  }
  if (job.distribution.bins() != ref.histogram.size() ||
      job.distribution.nan_count() != ref.histogram_nan) {
    *why = "histogram shape";
    return false;
  }
  for (std::size_t b = 0; b < ref.histogram.size(); ++b)
    if (job.distribution.count(b) != ref.histogram[b]) {
      *why = "histogram bin " + std::to_string(b);
      return false;
    }
  return true;
}

struct PartitionOut {
  std::size_t points = 0;
  double fb_sum = 0.0;
  util::Histogram dist{-0.2, 1.2, 56};
  std::size_t photons = 0;
  std::size_t segments = 0;
  std::size_t labeled = 0;
};

/// The Table V job composed from its public calls, one span per call. The
/// per-partition arithmetic (label seed, summation order, histogram merge)
/// is the library job's, so the output is bit-identical.
core::FreeboardJobStats traced_job(mapred::Engine& engine, const Inputs& in,
                                   const geo::GeoCorrections& corrections, SpanRecorder& rec,
                                   Result& res) {
  const core::PipelineConfig& config = in.config;
  const std::uint32_t op = rec.next_op();
  Span job(&rec, "batch.job", 0, op);
  std::unique_ptr<pipeline::ProductBuilder> builder;
  {
    Span s(&rec, "pipeline.builder_ctor", job.id(), op);
    builder = std::make_unique<pipeline::ProductBuilder>(config, corrections);
  }
  const std::size_t n = in.shards.files.size();
  std::vector<atl03::Granule> parts;
  {
    Span load(&rec, "mapred.load", job.id(), op);
    parts = engine.run_stage<atl03::Granule>(n, [&](std::size_t i) {
      Span s(&rec, "h5lite.load_granule", load.id(), op);
      return h5::load_granule(in.shards.files[i]);
    });
  }
  {
    // The library job's MAP: stable (pair, id) key assignment.
    Span map(&rec, "mapred.map", job.id(), op);
    std::vector<std::size_t> keys(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) keys[i] = in.shards.pair_of_file[i] * 131 + i;
  }
  std::vector<PartitionOut> outs;
  {
    Span reduce(&rec, "mapred.reduce", job.id(), op);
    outs = engine.run_stage<PartitionOut>(n, [&](std::size_t i) {
      Span task(&rec, "mapred.reduce_task", reduce.id(), op);
      const atl03::Granule& shard = parts[i];
      if (shard.beams.size() != 1) throw std::invalid_argument("shard must hold one beam");
      PartitionOut out;
      out.photons = shard.total_photons();
      pipeline::Artifacts art = pipeline::Artifacts::from_beam(shard, shard.beams[0]);
      {
        Span s(&rec, "atl03.preprocess", task.id(), op);
        builder->run_until(art, pipeline::StageId::preprocess);
      }
      {
        Span s(&rec, "resample.resample", task.id(), op);
        builder->run_until(art, pipeline::StageId::resample);
      }
      {
        Span s(&rec, "resample.fpb", task.id(), op);
        builder->run_until(art, pipeline::StageId::fpb);
      }
      const std::size_t pair = in.shards.pair_of_file[i];
      label::AutoLabelConfig al = config.autolabel;
      if (al.feature_gap_m < 0.0) al.feature_gap_m = config.segmenter.window_m * 1.5;
      al.seed = config.seed ^ util::hash64(i * 67 + 9);
      al.overlay.shift = in.drifts[pair];
      label::LabeledBeam lb;
      {
        Span s(&rec, "label.autolabel", task.id(), op);
        lb = label::auto_label(in.rasters[pair], art.take_segments(), al);
      }
      out.segments = lb.segments.size();
      for (const auto c : lb.labels) out.labeled += c != atl03::SurfaceClass::Unknown;
      pipeline::Artifacts tail =
          pipeline::Artifacts::resume(std::move(lb.segments), std::move(lb.labels));
      {
        Span s(&rec, "seasurface.detect", task.id(), op);
        builder->build(tail, pipeline::ProductKind::seasurface, nullptr,
                       seasurface::Method::NasaEquation);
      }
      {
        Span s(&rec, "freeboard.compute", task.id(), op);
        builder->build(tail, pipeline::ProductKind::freeboard, nullptr,
                       seasurface::Method::NasaEquation);
      }
      for (const auto& p : tail.freeboard_out().points) {
        out.fb_sum += p.freeboard;
        out.dist.add(p.freeboard);
      }
      out.points = tail.freeboard_out().points.size();
      return out;
    });
  }
  core::FreeboardJobStats stats;
  double fb_sum = 0.0;
  std::size_t photons = 0, segments = 0, labeled = 0;
  for (const auto& p : outs) {
    stats.points += p.points;
    fb_sum += p.fb_sum;
    stats.distribution.merge(p.dist);
    photons += p.photons;
    segments += p.segments;
    labeled += p.labeled;
  }
  stats.mean_freeboard = stats.points ? fb_sum / static_cast<double>(stats.points) : 0.0;
  res.counters["atl03.photons"] += static_cast<double>(photons);
  res.counters["resample.segments"] += static_cast<double>(segments);
  res.counters["label.labeled"] += static_cast<double>(labeled);
  res.counters["freeboard.points"] += static_cast<double>(stats.points);
  return stats;
}

}  // namespace

void run_batch(const Options& opt, Result& res) {
  res.threads = check_thread_budget(static_cast<int>(kTopology.total_workers()),
                                    static_cast<int>(kTopology.total_workers()));
  const Reference ref = load_reference(opt.dir);
  res.work_unit = "photons";

  // Set-up: load the inputs, construct the engine, run one warm-up job.
  Inputs in;
  std::unique_ptr<mapred::Engine> engine;
  std::unique_ptr<core::Campaign> campaign;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    campaign.reset();
    in = Inputs{};
    release_freed_memory();
    const std::int64_t t0 = now_ns();
    in = load_inputs(opt.dir);
    campaign = std::make_unique<core::Campaign>(in.config);
    engine = std::make_unique<mapred::Engine>(kTopology);
    const auto warm = core::run_freeboard_job(*engine, in.shards, in.rasters, in.drifts,
                                              campaign->corrections(), in.config);
    std::string why;
    if (!matches(warm, ref, &why)) res.fail("warm-up job: " + why);
    res.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const geo::GeoCorrections& corrections = campaign->corrections();

  auto window = [&](std::vector<double>& op_ms, auto&& job) {
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::size_t jobs = 0;
    for (std::int64_t t = start; t < deadline || jobs < kMinJobs; ++jobs) {
      ++res.attempted;
      try {
        const core::FreeboardJobStats stats = job();
        const std::int64_t end = now_ns();
        op_ms.push_back(ms_between(t, end));
        std::string why;
        if (!matches(stats, ref, &why)) {
          ++res.failed;
          res.fail("job " + std::to_string(res.attempted) + ": " + why);
        }
        t = end;
      } catch (const std::exception& e) {
        ++res.failed;
        res.fail(std::string("job threw: ") + e.what());
        t = now_ns();
      }
      if (res.threads.observed == 0) res.threads.observed = process_threads();
    }
    return ms_between(start, now_ns()) * 1e-3;
  };

  auto library_job = [&] {
    return core::run_freeboard_job(*engine, in.shards, in.rasters, in.drifts, corrections,
                                   in.config);
  };
  if (!opt.trace) {
    res.window_s = window(res.op_ms, library_job);
    res.work = static_cast<double>(in.photons) * static_cast<double>(res.op_ms.size());
    return;
  }

  window(res.untraced_op_ms, library_job);
  SpanRecorder rec(true);
  res.window_s = window(res.op_ms, [&] { return traced_job(*engine, in, corrections, rec, res); });
  res.work = static_cast<double>(in.photons) * static_cast<double>(res.op_ms.size());
  res.counters["mapred.workers"] = static_cast<double>(kTopology.total_workers());
  rec.write_csv(opt.dir + "/spans.csv");
}

}  // namespace perf
