#include "resample/fpb.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace is2::resample {

struct FirstPhotonBiasCorrector::Table {
  std::vector<double> rate_grid;
  std::vector<double> sigma_grid;
  std::vector<double> values;  // [rate][sigma], row-major
};

namespace {

using Table = FirstPhotonBiasCorrector::Table;

double calibrate_cell(double dead_time_m, int channels, double rate, double sigma,
                      std::uint64_t seed) {
  // Monte-Carlo: the expectation of the mean *recorded* height when the true
  // surface is at 0 and the detector applies the dead-time rule.
  util::Rng rng(util::hash64(seed));
  constexpr int kShots = 4000;
  double sum = 0.0;
  std::size_t count = 0;
  std::vector<double> shot;
  std::vector<double> blind_until(static_cast<std::size_t>(channels));
  std::vector<bool> blind(static_cast<std::size_t>(channels));
  for (int k = 0; k < kShots; ++k) {
    const int n = rng.poisson(rate);
    if (n == 0) continue;
    shot.clear();
    for (int p = 0; p < n; ++p) shot.push_back(sigma * rng.normal());
    std::sort(shot.begin(), shot.end(), std::greater<>());
    std::fill(blind.begin(), blind.end(), false);
    for (double h : shot) {
      const auto ch = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(channels) - 1));
      if (blind[ch] && h > blind_until[ch]) continue;
      blind[ch] = true;
      blind_until[ch] = h - dead_time_m;
      sum += h;
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

Table calibrate(double dead_time_m, int channels, std::uint64_t seed) {
  Table t;
  for (double r = 0.25; r <= 10.01; r += 0.75) t.rate_grid.push_back(r);
  for (double s = 0.01; s <= 0.2501; s += 0.03) t.sigma_grid.push_back(s);
  t.values.resize(t.rate_grid.size() * t.sigma_grid.size());
  for (std::size_t i = 0; i < t.rate_grid.size(); ++i)
    for (std::size_t j = 0; j < t.sigma_grid.size(); ++j)
      t.values[i * t.sigma_grid.size() + j] =
          calibrate_cell(dead_time_m, channels, t.rate_grid[i], t.sigma_grid[j],
                         seed ^ (i * 0x9E3779B9ull) ^ (j * 0x85EBCA6Bull));
  return t;
}

/// Process-wide tables by (dead_time_m bits, clamped channels, seed). The
/// dead time is keyed by its bit pattern so every double, NaN included, has a
/// well-ordered key. Calibration runs with the lock held: a key is
/// calibrated at most once per process, and a thread that asks for a key
/// being calibrated waits for that table instead of computing its own.
struct Registry {
  using Key = std::tuple<std::uint64_t, int, std::uint64_t>;

  util::Mutex mutex;
  std::map<Key, std::shared_ptr<const Table>> tables GUARDED_BY(mutex);

  std::shared_ptr<const Table> get(double dead_time_m, int channels, std::uint64_t seed) {
    const Key key{std::bit_cast<std::uint64_t>(dead_time_m), channels, seed};
    util::MutexLock lock(mutex);
    auto& slot = tables[key];
    if (!slot) slot = std::make_shared<Table>(calibrate(dead_time_m, channels, seed));
    return slot;
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

FirstPhotonBiasCorrector::FirstPhotonBiasCorrector(double dead_time_m, int channels,
                                                   std::uint64_t seed)
    : dead_time_m_(dead_time_m),
      channels_(std::max(channels, 1)),
      table_(registry().get(dead_time_m_, channels_, seed)) {}

double FirstPhotonBiasCorrector::bias(double rate_per_shot, double sigma_m) const {
  const Table& t = *table_;
  const auto clampi = [](double v, const std::vector<double>& grid) {
    return std::clamp(v, grid.front(), grid.back());
  };
  const double r = clampi(rate_per_shot, t.rate_grid);
  const double s = clampi(sigma_m, t.sigma_grid);

  const auto cell = [](double v, const std::vector<double>& grid) {
    auto it = std::upper_bound(grid.begin(), grid.end(), v);
    std::size_t hi = static_cast<std::size_t>(it - grid.begin());
    hi = std::clamp<std::size_t>(hi, 1, grid.size() - 1);
    const std::size_t lo = hi - 1;
    const double w = (v - grid[lo]) / (grid[hi] - grid[lo]);
    return std::pair<std::size_t, double>(lo, w);
  };
  const auto [ri, rw] = cell(r, t.rate_grid);
  const auto [si, sw] = cell(s, t.sigma_grid);
  const std::size_t ns = t.sigma_grid.size();
  const double v00 = t.values[ri * ns + si];
  const double v10 = t.values[(ri + 1) * ns + si];
  const double v01 = t.values[ri * ns + si + 1];
  const double v11 = t.values[(ri + 1) * ns + si + 1];
  const double top = v00 * (1.0 - rw) + v10 * rw;
  const double bot = v01 * (1.0 - rw) + v11 * rw;
  return top * (1.0 - sw) + bot * sw;
}

void FirstPhotonBiasCorrector::apply(std::vector<Segment>& segments) const {
  for (auto& seg : segments) {
    const double b = bias(seg.photon_rate, seg.h_std);
    seg.h_mean -= b;
    seg.h_median -= b;
  }
}

}  // namespace is2::resample
