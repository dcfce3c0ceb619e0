// Instrument value types of the `is2::obs` metrics layer: Counter, Gauge and
// HistogramMetric. Instruments are created through an `obs::Registry` (which
// owns them and guarantees stable addresses); subsystems keep raw pointers
// and hit them directly on the hot path.
//
// Threading contract: every instrument is safe for concurrent use from any
// thread. Counter/Gauge updates are single relaxed atomics (lock-free,
// wait-free). HistogramMetric::observe takes a per-instrument mutex — never
// a global lock — because util::RunningStats / util::Histogram are plain
// unsynchronized accumulators and the snapshot must be internally
// consistent (stats.count() == histogram.total()). A Snapshot is a plain
// value (callers synchronize).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace is2::obs {

/// Monotonic event count. inc() is a relaxed fetch_add; value() a relaxed
/// load — exact under concurrency (every increment lands), ordering-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, resident bytes).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency distribution instrument, in milliseconds: Welford stats plus a
/// histogram of log10(ms) over [10 us, 100 s], 10 bins per decade, so a
/// sub-millisecond cache probe and a near-second cold build are both
/// representable without saturating an edge bin (values outside clamp to
/// the edge bins). observe() is one uncontended mutex + two accumulator adds.
class HistogramMetric {
 public:
  static constexpr double kMinMs = 1e-2;  ///< 10 us: below this clamps low
  static constexpr double kMaxMs = 1e5;   ///< 100 s: above this clamps high
  static constexpr std::size_t kBinsPerDecade = 10;

  struct Snapshot {
    util::RunningStats stats;
    util::Histogram histogram{-2.0, 5.0, 7 * kBinsPerDecade};  ///< bins log10(ms)

    /// Percentile estimate from the log-scale histogram, back in
    /// milliseconds (p in [0,100]; 0 with no samples). Bin resolution bounds
    /// the error: 10 bins per decade means the estimate sits within a factor
    /// of 10^0.1 (~26%) of the exact order statistic.
    double percentile_ms(double p) const;
    double p50_ms() const { return percentile_ms(50.0); }
    double p99_ms() const { return percentile_ms(99.0); }
    /// Render the distribution with millisecond bin labels (log axis),
    /// skipping empty leading/trailing bins.
    std::string render(std::size_t max_width = 60) const;
  };

  void observe(double ms) {
    util::MutexLock lock(mutex_);
    state_.stats.add(ms);
    state_.histogram.add(std::log10(std::clamp(ms, kMinMs, kMaxMs)));
  }

  Snapshot snapshot() const {
    util::MutexLock lock(mutex_);
    return state_;
  }

 private:
  mutable util::Mutex mutex_;
  Snapshot state_ GUARDED_BY(mutex_);
};

}  // namespace is2::obs
