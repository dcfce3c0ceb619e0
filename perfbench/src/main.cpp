// is2perf — the benchmark's C++ side. perfbench/run.py drives it:
//
//   is2perf datagen --workload W --dir D --seed N
//       simulate the campaign for seed N and write shards, rasters, drifts
//       and W's reference outputs into D (run outside the measured process);
//   is2perf run --workload W --dir D --seed N --seconds S --trace 0|1
//       set W up from D, run it for S seconds, check every output and write
//       D/result.json (and D/spans.csv when traced).
//
// Exits 0 when the run completed (correct or not: correctness travels in
// result.json), 2 on a usage or set-up error.
#include <cstdio>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perf;
  try {
    const Options opt = parse_options(argc, argv);
    if (opt.mode == "datagen") {
      run_datagen(opt);
      return 0;
    }
    Result res;
    res.workload = opt.workload;
    if (opt.workload == kBatch) run_batch(opt, res);
    else if (opt.workload == kServe) run_serve(opt, res);
    else run_train(opt, res);
    res.peak_rss_mb = peak_rss_mb();
    res.write_json(opt.dir + "/result.json");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "is2perf: %s\n", e.what());
    return 2;
  }
}
