// Shared plumbing of the `is2perf` benchmark binary (perfbench/README.md):
// command-line options, the per-run input directory that `is2perf datagen`
// writes and the workloads read, the in-memory span recorder of traced runs,
// product hashing for output checks, and the result file run.py turns into
// metrics.
//
// Everything here sits outside the library: the workloads call only public
// entry points of src/, and every span is recorded by benchmark code around
// those calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "nn/model.hpp"
#include "resample/segmenter.hpp"
#include "sentinel2/image.hpp"
#include "serve/product_cache.hpp"

namespace perf {

inline constexpr const char* kBatch = "batch_freeboard";
inline constexpr const char* kServe = "serve_zipf";
inline constexpr const char* kTrain = "train_dist";

struct Options {
  std::string mode;      ///< "datagen" or "run"
  std::string workload;  ///< kBatch / kServe / kTrain
  std::string dir;       ///< per-run directory (inputs, references, outputs)
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `<mode> --workload W --dir D --seed N [--seconds S] [--trace 0|1]`;
/// throws std::invalid_argument on anything else.
Options parse_options(int argc, char** argv);

/// The campaign a workload runs on: the paper's Ross Sea scene with the
/// presets' fixed simulation seed, so every workload seed processes the
/// same photons. Batch and training use the first 2 Table I pairs at the
/// small preset (20 km tracks, 3 chunks per beam: 18 shards); serving uses
/// all 8 pairs at the tiny preset (6 km tracks: 24 granule beams), so a
/// cold build is short enough that a timed window holds hundreds of them.
/// The workload seed varies what varies in use: the shard order (partition
/// placement), the request traffic, the training shuffle and init.
struct Scale {
  const char* preset;  ///< "small" or "tiny"
  std::size_t pairs;
};
Scale scale_for(const std::string& workload);
is2::core::PipelineConfig preset_config(const std::string& preset);

/// Inputs written by `datagen` into the run directory.
struct Inputs {
  std::string preset;
  is2::core::PipelineConfig config;
  is2::core::ShardSet shards;
  std::vector<is2::s2::ClassRaster> rasters;  ///< segmented S2 labels per pair
  std::vector<is2::geo::Xy> drifts;           ///< true drift per pair
  std::size_t photons = 0;                    ///< photons over all shards
};

void save_inputs(const std::string& dir, const Inputs& in);
Inputs load_inputs(const std::string& dir);

/// The paper's LSTM, initialized from `init_seed`, then loaded from
/// `weights_path` when non-empty.
is2::nn::Sequential make_model(const is2::core::PipelineConfig& config, std::uint64_t init_seed,
                               const std::string& weights_path = "");

void save_scaler(const is2::resample::FeatureScaler& scaler, const std::string& path);
is2::resample::FeatureScaler load_scaler(const std::string& path);

/// Order-sensitive hash of every field a served product carries (segments,
/// classes, sea surface, freeboard points) — equal hashes mean equal bytes.
std::uint64_t product_hash(const is2::serve::GranuleProduct& product);

/// Simple key/value text file (one `key value` pair per line); doubles are
/// written as hex floats so they round-trip bit for bit.
using KeyValues = std::map<std::string, std::string>;
void save_kv(const std::string& path, const KeyValues& kv);
KeyValues load_kv(const std::string& path);
std::string hex_double(double v);
double parse_double(const std::string& s);

// ---------------------------------------------------------------------------
// Clock and process probes
// ---------------------------------------------------------------------------

/// Nanoseconds on the monotonic clock since the first call in this process.
std::int64_t now_ns();

inline double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

/// High-water resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Return freed heap memory to the OS. Called between set-up repetitions
/// (untimed), after the previous repetition's state is destroyed: a user
/// sets up once, so memory the thrown-away set-ups freed into per-thread
/// malloc arenas must not raise the process's high-water mark.
void release_freed_memory();

/// Threads this process runs right now (/proc/self/status Threads).
int process_threads();

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// The workload's declared concurrency: `runnable` is how many of its
/// threads can compute at once (each runs OpenMP regions with
/// OMP_NUM_THREADS threads), `spawned` how many it starts in total.
struct ThreadBudget {
  int nproc = 0;
  int omp_threads = 0;
  int runnable = 0;
  int spawned = 0;
  int observed = 0;  ///< process threads sampled during the timed window
};

/// Fills nproc/omp_threads and throws std::runtime_error when
/// OMP_NUM_THREADS is not 1 or runnable × omp_threads exceeds nproc.
ThreadBudget check_thread_budget(int runnable, int spawned);

// ---------------------------------------------------------------------------
// Spans of traced runs
// ---------------------------------------------------------------------------

/// One recorded interval. `op` groups the spans of one operation (a job, a
/// request, a training step); `parent` is 0 for the operation's root.
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string name;
  std::string tags;  ///< `key=value;...`, may be empty
};

/// In-memory span store. Thread-safe; spans are kept until write_csv() at
/// exit. A disabled recorder (untraced runs) records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  std::uint32_t next_op() { return next_op_.fetch_add(1, std::memory_order_relaxed); }
  void add(SpanRecord span);
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint32_t> next_op_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call. With a null or disabled recorder it does not
/// even read the clock, so untraced runs pay one branch per span.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name, std::uint32_t parent, std::uint32_t op);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }
  void tag(const std::string& key, const std::string& value);
  /// Close now (the destructor then does nothing); returns the duration
  /// (0 when not recording).
  double end_ms();

 private:
  SpanRecorder* rec_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_;
  std::uint32_t op_;
  std::int64_t start_ns_;
  bool open_ = true;
  std::string tags_;
};

// ---------------------------------------------------------------------------
// Result file
// ---------------------------------------------------------------------------

/// What one workload process measured; written as JSON to
/// `<dir>/result.json` for run.py. Latencies are raw per-op samples:
/// perfbench/analysis.py computes the percentiles, so the arithmetic lives
/// (and is tested) in one place.
struct Result {
  std::string workload;
  ThreadBudget threads;
  std::vector<double> setup_s;       ///< one entry per set-up repetition
  double window_s = 0.0;             ///< timed window length
  double work = 0.0;                 ///< photons / requests / samples in the window
  std::string work_unit;
  std::vector<double> op_ms;         ///< per-op latency in the timed window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;   ///< correctness failures (empty = correct)
  double peak_rss_mb = 0.0;
  /// Traced runs: the untraced window's op latencies (tracing overhead) and
  /// layer counters measured by the benchmark.
  std::vector<double> untraced_op_ms;
  std::map<std::string, double> counters;
  std::map<std::string, std::string> info;

  void fail(const std::string& message);
  void write_json(const std::string& path) const;
};

}  // namespace perf
