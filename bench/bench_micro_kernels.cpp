// Micro-benchmarks for the kernels the pipeline spends its time in — GEMM,
// LSTM forward/backward, focal loss, ring all-reduce, projection (exact and
// the local expansion), preprocess per photon, 2 m resampling, h5lite
// (de)serialization, CRC-32 — plus the distributed-training substrate's
// headline numbers.
//
//   ./bench/bench_micro_kernels [BENCH_dist.json]
//
// Self-timed (no external benchmark framework — CI builds with the repo's
// toolchain only). With a path argument a machine-readable summary is
// written there (a CI artifact): the all-reduce GB/s sweep across buffer
// sizes and rank counts, the table-4-style rank sweep of the synchronous
// trainer on a synthetic task (time per epoch, speedup, accuracy) and the
// fig-5-style per-epoch curve points.
//
// Timing note: epoch times come from the trainer's critical-path accounting
// (max over ranks of per-thread busy CPU), so the speedup column reflects
// one-core-per-rank scaling even when this host has fewer cores
// (docs/distributed.md#timing).
//
// Tripwire (exit 1): the 4-rank trainer speedup must stay >= 2.5x — the
// floor that keeps the bucketed-overlap path honest (paper's Table 4 shows
// near-linear scaling at 4 workers).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "atl03/photon_sim.hpp"
#include "atl03/preprocess.hpp"
#include "dist/comm.hpp"
#include "dist/trainer.hpp"
#include "geo/polar_stereo.hpp"
#include "geo/wgs84.hpp"
#include "h5lite/granule_io.hpp"
#include "h5lite/h5file.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "resample/segmenter.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace is2;
using is2::util::Rng;
using is2::util::Timer;

volatile float g_sink = 0.0f;  ///< keeps results observable to the optimizer

/// Mean wall milliseconds per call (one warm call first).
template <typename F>
double time_ms(F&& fn, int iters) {
  fn();
  Timer t;
  for (int i = 0; i < iters; ++i) fn();
  return t.millis() / iters;
}

void bench_gemm() {
  std::printf("== gemm_nt (32 x n x n) ==\n");
  for (std::size_t n : {16u, 64u, 112u}) {
    Rng rng(1);
    nn::Mat a(32, n), b(n, n), c(32, n);
    for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<float>(rng.uniform());
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = static_cast<float>(rng.uniform());
    const double ms = time_ms([&] { nn::gemm_nt(a, b, c); g_sink = c.data()[0]; }, 2000);
    std::printf("  n=%-4zu %8.4f ms  %7.2f GF/s\n", n, ms,
                2.0 * 32 * double(n) * double(n) * 1e-6 / ms);
  }
}

void bench_lstm_fb() {
  Rng rng(2);
  nn::Sequential model = nn::make_lstm_model(5, 6, rng);
  nn::Tensor3 x(32, 5, 6);
  for (auto& v : x.v) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<std::uint8_t> y(32, 1);
  nn::FocalLoss loss(2.0);
  nn::Mat grad;
  const double ms = time_ms(
      [&] {
        const nn::Mat& logits = model.forward(x, true);
        loss.compute(logits, y, grad);
        model.backward(grad);
        g_sink = grad.data()[0];
      },
      200);
  std::printf("lstm forward+backward (batch 32): %.4f ms  (%.0f samples/s)\n", ms,
              32.0 / (ms * 1e-3));
}

void bench_focal_loss() {
  Rng rng(3);
  nn::Mat logits(256, 3);
  for (std::size_t i = 0; i < logits.size(); ++i)
    logits.data()[i] = static_cast<float>(rng.normal(0.0, 2.0));
  std::vector<std::uint8_t> y(256);
  for (auto& v : y) v = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
  nn::FocalLoss loss(2.0);
  nn::Mat grad;
  const double ms =
      time_ms([&] { g_sink = static_cast<float>(loss.compute(logits, y, grad)); }, 2000);
  std::printf("focal loss (batch 256): %.4f ms  (%.0f samples/s)\n", ms, 256.0 / (ms * 1e-3));
}

void bench_projection() {
  const auto proj = geo::PolarStereo::epsg3976();
  Rng rng(4);
  std::vector<geo::LonLat> lls(1024);
  std::vector<geo::Xy> xys(1024);
  for (std::size_t i = 0; i < lls.size(); ++i) {
    lls[i] = {rng.uniform(-180.0, -140.0), rng.uniform(-78.0, -70.0)};
    xys[i] = proj.forward(lls[i]);
  }
  const double fwd_ms = time_ms(
      [&] {
        for (const auto& p : lls) g_sink = static_cast<float>(proj.forward(p).x);
      },
      500);
  const double inv_ms = time_ms(
      [&] {
        for (const auto& p : xys) g_sink = static_cast<float>(proj.inverse(p).lat);
      },
      500);
  // The expansion preprocess uses between a geolocation segment's end
  // photons, over points inside its radius around one reference.
  const geo::LonLat ref{-165.0, -75.5};
  const auto local = proj.local(ref);
  std::vector<geo::LonLat> near(1024);
  for (auto& p : near)
    p = {ref.lon + geo::rad2deg(rng.uniform(-0.999, 0.999) * geo::PolarStereo::Local::kMaxDlonRad),
         ref.lat + geo::rad2deg(rng.uniform(-0.999, 0.999) * geo::PolarStereo::Local::kMaxDlatRad)};
  const double local_ms = time_ms(
      [&] {
        for (const auto& p : near) g_sink = static_cast<float>(local.forward(p).x);
      },
      500);
  std::printf("polar stereo (1024 pts): forward %.4f ms  inverse %.4f ms  local %.4f ms\n",
              fwd_ms, inv_ms, local_ms);
}

struct SimFixture {
  geo::GeoCorrections corrections{7};
  atl03::SurfaceConfig scfg;
  geo::GroundTrack track{geo::PolarStereo::epsg3976().forward({-170.0, -75.0}), 0.4};
  atl03::SurfaceModel surface;
  atl03::Granule granule;
  atl03::PreprocessedBeam pre;

  SimFixture()
      : surface((scfg.length_m = 5'000.0, scfg), track, corrections, 9),
        granule(atl03::PhotonSimulator(atl03::InstrumentConfig{}, 10)
                    .simulate_granule(surface, "BM", 0.0, {atl03::BeamId::Gt2r})),
        pre(atl03::preprocess_beam(granule, granule.beams[0], corrections)) {}
};

void bench_resample_and_h5(const SimFixture& fx) {
  const auto& raw = fx.granule.beams[0];
  const double pre_ms = time_ms(
      [&] { g_sink = atl03::preprocess_beam(fx.granule, raw, fx.corrections).size(); }, 50);
  std::printf("preprocess (%zu photons in, %zu out): %.3f ms  (%.1f ns/photon)\n", raw.size(),
              fx.pre.size(), pre_ms, pre_ms * 1e6 / static_cast<double>(raw.size()));

  const double res_ms = time_ms([&] { g_sink = resample::resample(fx.pre).empty(); }, 50);
  std::printf("resample 2m (%zu photons): %.3f ms\n", fx.pre.size(), res_ms);

  const auto buf = h5::to_file(fx.granule).serialize();
  const double ser_ms = time_ms([&] { g_sink = h5::to_file(fx.granule).serialize().size(); }, 50);
  const double de_ms =
      time_ms([&] { g_sink = h5::File::deserialize(buf).dataset_count(); }, 50);
  std::printf("granule serialize %.3f ms (%.1f MB/s)  deserialize %.3f ms (%.1f MB/s)\n", ser_ms,
              double(buf.size()) / (ser_ms * 1e3), de_ms, double(buf.size()) / (de_ms * 1e3));
}

/// CRC-32 throughput at the sizes the file paths checksum: a serve product
/// (the tiny preset's beam, 359 130 B) and a batch shard (1.77 MB). Best of
/// 30 calls; the kernel is the one crc32 picked for this CPU.
void bench_crc32() {
  std::printf("== crc32 (%s) ==\n", h5::crc32_kernel());
  Rng rng(5);
  for (const std::size_t n : {std::size_t{359130}, std::size_t{1770000}}) {
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    double best_ms = 1e30;
    for (int i = 0; i < 30; ++i) {
      Timer t;
      g_sink = static_cast<float>(h5::crc32(buf));
      best_ms = std::min(best_ms, t.millis());
    }
    std::printf("  %8zu B  %8.1f us  %6.2f GB/s\n", n, best_ms * 1e3,
                static_cast<double>(n) / (best_ms * 1e6));
  }
}

/// One point of the all-reduce sweep: aggregate GB/s through an N-rank ring
/// reduction of `n` floats (bytes moved = ranks × 2(N−1)/N × 4n).
struct AllreducePoint {
  int ranks = 0;
  std::size_t floats = 0;
  double ms = 0.0;
  double gbps = 0.0;
};

std::vector<AllreducePoint> bench_allreduce() {
  std::printf("== ring all-reduce (aggregate GB/s) ==\n");
  std::vector<AllreducePoint> points;
  for (int ranks : {2, 4, 8}) {
    for (std::size_t n : {std::size_t{1024}, std::size_t{37'000}, std::size_t{262'144}}) {
      dist::Communicator comm(ranks);
      std::vector<std::vector<float>> bufs(static_cast<std::size_t>(ranks),
                                           std::vector<float>(n, 1.0f));
      const int iters = n > 100'000 ? 20 : 100;
      const double ms = time_ms(
          [&] {
            std::vector<std::thread> threads;
            for (int r = 0; r < ranks; ++r)
              threads.emplace_back(
                  [&, r] { comm.allreduce_mean(r, bufs[static_cast<std::size_t>(r)]); });
            for (auto& t : threads) t.join();
            g_sink = bufs[0][0];
          },
          iters);
      const double bytes = static_cast<double>(dist::Communicator::allreduce_bytes_per_rank(
                               ranks, n)) *
                           ranks;
      AllreducePoint p{ranks, n, ms, bytes / (ms * 1e6)};
      points.push_back(p);
      std::printf("  ranks=%d n=%-7zu %8.4f ms  %6.2f GB/s\n", ranks, n, ms, p.gbps);
    }
  }
  return points;
}

/// One row of the table-4-style rank sweep on the synthetic task.
struct TrainPoint {
  int ranks = 0;
  double time_per_epoch_s = 0.0;
  double speedup = 1.0;
  double accuracy = 0.0;
  std::vector<double> epoch_times_s;
};

nn::Dataset toy_task(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  nn::Dataset d;
  d.x = nn::Tensor3(n, 5, 6);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    for (std::size_t t = 0; t < 5; ++t) {
      float* row = d.x.at(i, t);
      for (int f = 0; f < 6; ++f) row[f] = static_cast<float>(rng.normal(cls * 1.0, 0.5));
    }
    d.y[i] = cls;
  }
  return d;
}

std::vector<TrainPoint> bench_dist_training() {
  std::printf("== distributed training rank sweep (LSTM, synthetic task) ==\n");
  const auto train = toy_task(4'096, 7);
  const auto test = toy_task(512, 8);
  std::vector<TrainPoint> points;
  double t1 = 0.0;
  for (int ranks : {1, 2, 4, 8}) {
    dist::TrainerConfig cfg;
    cfg.ranks = ranks;
    cfg.epochs = 3;
    const auto result = dist::train_distributed(
        [] {
          Rng rng(9);
          return nn::make_lstm_model(5, 6, rng);
        },
        train, test, cfg);
    TrainPoint p;
    p.ranks = ranks;
    p.time_per_epoch_s = result.time_per_epoch_s;
    p.accuracy = result.test_metrics.accuracy;
    p.epoch_times_s = result.epoch_times_s;
    if (ranks == 1) t1 = result.time_per_epoch_s;
    p.speedup = t1 > 0.0 ? t1 / result.time_per_epoch_s : 1.0;
    points.push_back(p);
    std::printf("  ranks=%d  %.3f s/epoch  %.2fx  acc %.3f\n", ranks, p.time_per_epoch_s,
                p.speedup, p.accuracy);
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "";

  bench_gemm();
  bench_lstm_fb();
  bench_focal_loss();
  bench_projection();
  {
    const SimFixture fx;
    bench_resample_and_h5(fx);
  }
  bench_crc32();
  const auto allreduce = bench_allreduce();
  const auto training = bench_dist_training();

  double speedup_4 = 0.0;
  for (const auto& p : training)
    if (p.ranks == 4) speedup_4 = p.speedup;
  // Headline bandwidth: the model-gradient-sized buffer at 4 ranks.
  double allreduce_gbps = 0.0;
  for (const auto& p : allreduce)
    if (p.ranks == 4 && p.floats == 37'000) allreduce_gbps = p.gbps;

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    } else {
      out << "{\n  \"allreduce\": [\n";
      for (std::size_t i = 0; i < allreduce.size(); ++i) {
        const auto& p = allreduce[i];
        out << "    {\"ranks\": " << p.ranks << ", \"floats\": " << p.floats
            << ", \"ms\": " << p.ms << ", \"gbps\": " << p.gbps << "}"
            << (i + 1 < allreduce.size() ? "," : "") << "\n";
      }
      out << "  ],\n  \"training\": {\n    \"curve\": [\n";
      for (std::size_t i = 0; i < training.size(); ++i) {
        const auto& p = training[i];
        out << "      {\"ranks\": " << p.ranks << ", \"time_per_epoch_s\": " << p.time_per_epoch_s
            << ", \"speedup\": " << p.speedup << ", \"accuracy\": " << p.accuracy
            << ", \"epoch_times_s\": [";
        for (std::size_t e = 0; e < p.epoch_times_s.size(); ++e)
          out << p.epoch_times_s[e] << (e + 1 < p.epoch_times_s.size() ? ", " : "");
        out << "]}" << (i + 1 < training.size() ? "," : "") << "\n";
      }
      out << "    ]\n  },\n  \"dist_speedup_4rank\": " << speedup_4
          << ",\n  \"allreduce_gbps\": " << allreduce_gbps << "\n}\n";
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  if (speedup_4 < 2.5) {
    std::fprintf(stderr,
                 "FAIL: 4-rank training speedup %.2fx (need >= 2.5x) — bucketed overlap or "
                 "sharding regressed\n",
                 speedup_4);
    return 1;
  }
  std::printf("4-rank training speedup: %.2fx (>= 2.5x required)\n", speedup_4);
  return 0;
}
