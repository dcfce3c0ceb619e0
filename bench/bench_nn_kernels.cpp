// NN kernel bench: GEMM / fused-dense throughput at the classifier's real
// shapes, against the retained reference kernels, plus end-to-end
// windows/sec through Model::predict on the paper's LSTM architecture.
//
//   ./bench/bench_nn_kernels [BENCH_nn.json]
//
// With a path argument, a machine-readable summary is written there (a CI
// artifact).
//
// Tripwire (exit 1): the aggregate forward-kernel speedup over the
// reference kernels at the classifier shapes must stay >= 3x — the floor
// the tiled/vectorized kernels were introduced to clear. Aggregate =
// total reference time / total fast time over all forward shapes, i.e.
// weighted by where the model actually spends its time.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace is2::nn;
using is2::util::Rng;
using is2::util::Timer;

Mat random_mat(std::size_t r, std::size_t c, Rng& rng) {
  Mat m(r, c);
  for (auto& v : m.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

/// One forward-kernel shape: y = act(x W^T + b) with x:[m,k], w:[n,k].
struct Shape {
  const char* name;
  std::size_t m, n, k;
  Activation act;
};

struct ShapeResult {
  const char* name = "";
  std::size_t m = 0, n = 0, k = 0;
  double fast_ms = 0, ref_ms = 0;
  double gflops() const { return 2.0 * double(m) * double(n) * double(k) * 1e-6 / fast_ms; }
  double ref_gflops() const { return 2.0 * double(m) * double(n) * double(k) * 1e-6 / ref_ms; }
  double speedup() const { return ref_ms > 0 ? ref_ms / fast_ms : 0.0; }
};

/// Median-of-repeats wall time for one call.
template <typename F>
double time_ms(F&& fn, int iters) {
  fn();  // warm
  Timer t;
  for (int i = 0; i < iters; ++i) fn();
  return t.millis() / iters;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "";
  Rng rng(17);

  // The classifier's forward shapes at the serve batch size (256 windows):
  // the LSTM's per-timestep input / recurrent GEMMs, then the dense stack
  // 16-32-96-32-16-112-48-64-3 (ELU except the logits head).
  const std::size_t B = 256;
  const std::vector<Shape> shapes = {
      {"lstm_wx", B, 64, 6, Activation::Linear},
      {"lstm_wh", B, 64, 16, Activation::Linear},
      {"dense_16_32", B, 32, 16, Activation::Elu},
      {"dense_32_96", B, 96, 32, Activation::Elu},
      {"dense_96_32", B, 32, 96, Activation::Elu},
      {"dense_32_16", B, 16, 32, Activation::Elu},
      {"dense_16_112", B, 112, 16, Activation::Elu},
      {"dense_112_48", B, 48, 112, Activation::Elu},
      {"dense_48_64", B, 64, 48, Activation::Elu},
      {"logits_64_3", B, 3, 64, Activation::Linear},
  };

  std::printf("== forward kernels at classifier shapes (batch %zu) ==\n", B);
  std::printf("%-14s %5s %5s %5s  %10s %10s %9s %9s %8s\n", "shape", "m", "n", "k", "fast ms",
              "ref ms", "fast GF/s", "ref GF/s", "speedup");

  std::vector<ShapeResult> results;
  double fast_total = 0.0, ref_total = 0.0;
  for (const Shape& s : shapes) {
    const Mat x = random_mat(s.m, s.k, rng);
    const Mat w = random_mat(s.n, s.k, rng);
    const Mat b = random_mat(1, s.n, rng);
    Mat y, z, ref_out(s.m, s.n);
    const int iters = 300;

    // Production path: fused bias+activation dense forward.
    const double fast_ms =
        time_ms([&] { dense_forward_fused(x, w, b, s.act, y); }, iters);
    // Reference path: scalar GEMM + bias pass + activation pass (what
    // Dense::forward did before the rewrite).
    const double ref_ms = time_ms(
        [&] {
          gemm_nt_reference(x, w, ref_out, false);
          for (std::size_t r = 0; r < s.m; ++r) {
            float* row = ref_out.row(r);
            for (std::size_t c = 0; c < s.n; ++c) row[c] += b.at(0, c);
            for (std::size_t c = 0; c < s.n; ++c) row[c] = activate(s.act, row[c]);
          }
        },
        iters);

    ShapeResult r{s.name, s.m, s.n, s.k, fast_ms, ref_ms};
    results.push_back(r);
    fast_total += fast_ms;
    ref_total += ref_ms;
    std::printf("%-14s %5zu %5zu %5zu  %10.4f %10.4f %9.1f %9.1f %7.1fx\n", s.name, s.m, s.n,
                s.k, fast_ms, ref_ms, r.gflops(), r.ref_gflops(), r.speedup());
  }
  const double aggregate = ref_total / fast_total;
  std::printf("aggregate (total ref / total fast): %.2fx\n\n", aggregate);

  // Raw serial gemm_nt at a shape larger than the classifier's, against the
  // reference kernel: reported, not gated (the tripwire is the aggregate).
  double gemm_nt_big_ms = 0, gemm_nt_big_ref_ms = 0;
  {
    const Mat a = random_mat(512, 256, rng);
    const Mat bm = random_mat(384, 256, rng);
    Mat c(512, 384);
    gemm_nt_big_ms = time_ms([&] { gemm_nt(a, bm, c); }, 50);
    gemm_nt_big_ref_ms = time_ms([&] { gemm_nt_reference(a, bm, c); }, 50);
    std::printf("gemm_nt 512x384x256: fast %.3f ms (%.1f GF/s)  ref %.3f ms  %.1fx\n",
                gemm_nt_big_ms, 2.0 * 512 * 384 * 256 * 1e-6 / gemm_nt_big_ms,
                gemm_nt_big_ref_ms, gemm_nt_big_ref_ms / gemm_nt_big_ms);
  }

  // End-to-end: windows/sec through Model::predict on the paper's LSTM
  // (what the serve inference stage runs per granule).
  const std::size_t kWindow = 5, kDim = 6, kWindows = 7400;
  Rng mrng(99);
  Sequential model = make_lstm_model(kWindow, kDim, mrng);
  Tensor3 x(kWindows, kWindow, kDim);
  Rng xr(1);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  model.predict(x, 256);  // warm
  const int passes = 10;
  Timer t;
  for (int i = 0; i < passes; ++i) model.predict(x, 256);
  const double predict_ms = t.millis() / passes;
  const double windows_per_sec = kWindows / (predict_ms * 1e-3);
  std::printf("Model::predict (LSTM, %zu windows, batch 256): %.2f ms  (%.0f windows/sec)\n",
              kWindows, predict_ms, windows_per_sec);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    } else {
      out << "{\n  \"batch\": " << B << ",\n  \"shapes\": [\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const ShapeResult& r = results[i];
        out << "    {\"name\": \"" << r.name << "\", \"m\": " << r.m << ", \"n\": " << r.n
            << ", \"k\": " << r.k << ", \"fast_ms\": " << r.fast_ms
            << ", \"ref_ms\": " << r.ref_ms << ", \"fast_gflops\": " << r.gflops()
            << ", \"speedup\": " << r.speedup() << "}" << (i + 1 < results.size() ? "," : "")
            << "\n";
      }
      out << "  ],\n  \"aggregate_speedup\": " << aggregate
          << ",\n  \"gemm_nt_big_ms\": " << gemm_nt_big_ms
          << ",\n  \"gemm_nt_big_speedup\": " << gemm_nt_big_ref_ms / gemm_nt_big_ms
          << ",\n  \"predict_ms\": " << predict_ms
          << ",\n  \"predict_windows_per_sec\": " << windows_per_sec << "\n}\n";
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  // Tripwire: the kernel rewrite must keep paying for itself.
  if (aggregate < 3.0) {
    std::fprintf(stderr,
                 "FAIL: forward kernels only %.2fx faster than the reference kernels "
                 "(need >= 3x)\n",
                 aggregate);
    return 1;
  }
  std::printf("forward kernels: %.1fx faster than reference (>= 3x required)\n", aggregate);
  return 0;
}
