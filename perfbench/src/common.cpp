#include "common.hpp"

#include <malloc.h>
#include <omp.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "h5lite/h5file.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace perf {

namespace fs = std::filesystem;
using namespace is2;

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: is2perf <datagen|run> --workload W --dir D ...");
  Options o;
  o.mode = argv[1];
  if (o.mode != "datagen" && o.mode != "run")
    throw std::invalid_argument("unknown mode: " + o.mode);
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--dir") o.dir = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  if (o.workload != kBatch && o.workload != kServe && o.workload != kTrain)
    throw std::invalid_argument("unknown workload: " + o.workload);
  if (o.dir.empty()) throw std::invalid_argument("--dir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

Scale scale_for(const std::string& workload) {
  return workload == kServe ? Scale{"tiny", 8} : Scale{"small", 2};
}

core::PipelineConfig preset_config(const std::string& preset) {
  if (preset == "tiny") return core::PipelineConfig::tiny();
  if (preset == "small") return core::PipelineConfig::small();
  throw std::invalid_argument("unknown preset: " + preset);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

void save_raster(const s2::ClassRaster& raster, const std::string& path) {
  h5::File f;
  f.put<std::uint8_t>("/raster/labels", raster.data(), {raster.rows(), raster.cols()});
  f.set_attr("/raster/x0", raster.transform().x0);
  f.set_attr("/raster/y0", raster.transform().y0);
  f.set_attr("/raster/pixel", raster.transform().pixel);
  f.save(path);
}

s2::ClassRaster load_raster(const std::string& path) {
  const h5::File f = h5::File::load(path);
  const auto shape = f.shape("/raster/labels");
  const s2::GeoTransform gt{f.attr_double("/raster/x0"), f.attr_double("/raster/y0"),
                            f.attr_double("/raster/pixel")};
  s2::ClassRaster raster(shape[0], shape[1], gt);
  raster.data() = f.get<std::uint8_t>("/raster/labels");
  return raster;
}

}  // namespace

void save_inputs(const std::string& dir, const Inputs& in) {
  std::ofstream out(dir + "/MANIFEST");
  out << in.preset << " " << in.config.seed << " " << in.photons << " "
      << in.shards.files.size() << "\n";
  for (std::size_t i = 0; i < in.shards.files.size(); ++i)
    out << fs::path(in.shards.files[i]).filename().string() << " " << in.shards.pair_of_file[i]
        << "\n";
  out << in.rasters.size() << "\n";
  for (std::size_t k = 0; k < in.rasters.size(); ++k) {
    save_raster(in.rasters[k], dir + "/raster" + std::to_string(k) + ".h5l");
    out << hex_double(in.drifts[k].x) << " " << hex_double(in.drifts[k].y) << "\n";
  }
  if (!out) throw std::runtime_error("cannot write " + dir + "/MANIFEST");
}

Inputs load_inputs(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in) throw std::runtime_error("no inputs in " + dir + " (run datagen first)");
  Inputs out;
  std::uint64_t config_seed = 0;
  std::size_t n_files = 0;
  in >> out.preset >> config_seed >> out.photons >> n_files;
  out.config = preset_config(out.preset);
  out.config.seed = config_seed;
  for (std::size_t i = 0; i < n_files; ++i) {
    std::string file;
    std::size_t pair = 0;
    in >> file >> pair;
    out.shards.files.push_back(dir + "/" + file);
    out.shards.pair_of_file.push_back(pair);
  }
  std::size_t n_rasters = 0;
  in >> n_rasters;
  for (std::size_t k = 0; k < n_rasters; ++k) {
    std::string x, y;
    in >> x >> y;
    out.drifts.push_back({parse_double(x), parse_double(y)});
    out.rasters.push_back(load_raster(dir + "/raster" + std::to_string(k) + ".h5l"));
  }
  if (!in) throw std::runtime_error("truncated MANIFEST in " + dir);
  return out;
}

nn::Sequential make_model(const core::PipelineConfig& config, std::uint64_t init_seed,
                          const std::string& weights_path) {
  util::Rng rng(util::hash64(init_seed ^ 0x7517ull));
  nn::Sequential model = nn::make_lstm_model(config.sequence_window, resample::FeatureRow::kDim, rng);
  if (!weights_path.empty()) nn::load_weights(model, weights_path);
  return model;
}

void save_scaler(const resample::FeatureScaler& scaler, const std::string& path) {
  KeyValues kv;
  for (int d = 0; d < resample::FeatureRow::kDim; ++d) {
    kv["mean" + std::to_string(d)] = hex_double(scaler.mean[d]);
    kv["std" + std::to_string(d)] = hex_double(scaler.std[d]);
  }
  save_kv(path, kv);
}

resample::FeatureScaler load_scaler(const std::string& path) {
  const KeyValues kv = load_kv(path);
  resample::FeatureScaler scaler;
  for (int d = 0; d < resample::FeatureRow::kDim; ++d) {
    scaler.mean[d] = static_cast<float>(parse_double(kv.at("mean" + std::to_string(d))));
    scaler.std[d] = static_cast<float>(parse_double(kv.at("std" + std::to_string(d))));
  }
  return scaler;
}

// ---------------------------------------------------------------------------
// Hashing and key/value files
// ---------------------------------------------------------------------------

namespace {

/// FNV-1a over 64-bit words (one multiply per field keeps hashing a
/// megabyte-sized product well under a millisecond).
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void word(std::uint64_t w) { h = (h ^ w) * 0x100000001b3ull; }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) word(b[i]);
  }
  template <typename T>
  void add(T v) {
    static_assert(sizeof(T) <= sizeof(std::uint64_t));
    std::uint64_t w = 0;
    std::memcpy(&w, &v, sizeof v);
    word(w);
  }
};

}  // namespace

std::uint64_t product_hash(const serve::GranuleProduct& p) {
  // Field by field: struct padding bytes are not part of the value.
  Fnv f;
  f.bytes(p.granule_id.data(), p.granule_id.size());
  f.add(static_cast<int>(p.beam));
  f.add(static_cast<int>(p.kind));
  f.add(p.segments.size());
  for (const auto& s : p.segments) {
    for (double v : {s.s, s.t, s.x, s.y, s.h_mean, s.h_median, s.h_std, s.h_min, s.photon_rate,
                     s.bckgrd_rate})
      f.add(v);
    f.add(s.n_photons);
    f.add(static_cast<int>(s.truth));
  }
  f.add(p.classes.size());
  for (auto c : p.classes) f.add(static_cast<int>(c));
  f.add(p.sea_surface.points().size());
  for (const auto& q : p.sea_surface.points()) {
    for (double v : {q.s, q.h_ref, q.sigma}) f.add(v);
    f.add(q.n_leads);
    f.add(q.n_water_segments);
    f.add(q.interpolated);
  }
  f.add(p.freeboard.points.size());
  for (const auto& q : p.freeboard.points) {
    for (double v : {q.s, q.x, q.y, q.freeboard}) f.add(v);
    f.add(static_cast<int>(q.cls));
    f.add(static_cast<int>(q.truth));
  }
  return f.h;
}

void save_kv(const std::string& path, const KeyValues& kv) {
  std::ofstream out(path);
  for (const auto& [k, v] : kv) out << k << " " << v << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

KeyValues load_kv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  KeyValues kv;
  std::string k, v;
  while (in >> k >> v) kv[k] = v;
  return kv;
}

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_double(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

// ---------------------------------------------------------------------------
// Clock, process probes, thread budget
// ---------------------------------------------------------------------------

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

namespace {

long status_field(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, n, field) == 0) return std::strtol(line.c_str() + n, nullptr, 10);
  return -1;
}

}  // namespace

double peak_rss_mb() { return static_cast<double>(status_field("VmHWM:")) / 1024.0; }

void release_freed_memory() { malloc_trim(0); }

int process_threads() { return static_cast<int>(status_field("Threads:")); }

ThreadBudget check_thread_budget(int runnable, int spawned) {
  ThreadBudget b;
  b.nproc = static_cast<int>(std::thread::hardware_concurrency());
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0 && (b.nproc == 0 || online < b.nproc)) b.nproc = static_cast<int>(online);
  b.omp_threads = omp_get_max_threads();
  b.runnable = runnable;
  b.spawned = spawned;
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (!env || std::string(env) != "1" || b.omp_threads != 1)
    throw std::runtime_error("thread budget: start workload processes with OMP_NUM_THREADS=1");
  if (runnable * b.omp_threads > b.nproc)
    throw std::runtime_error("thread budget: " + std::to_string(runnable) +
                             " runnable threads exceed nproc " + std::to_string(b.nproc));
  return b;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {

/// Ordinal of the calling thread (1, 2, ... in order of first use).
std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

void SpanRecorder::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void SpanRecorder::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id,parent,op,thread,start_ns,end_ns,name,tags\n");
  for (const auto& s : spans_)
    std::fprintf(f, "%u,%u,%u,%u,%" PRId64 ",%" PRId64 ",%s,%s\n", s.id, s.parent, s.op,
                 s.thread, s.start_ns, s.end_ns, s.name.c_str(), s.tags.c_str());
  std::fclose(f);
}

Span::Span(SpanRecorder* rec, const char* name, std::uint32_t parent, std::uint32_t op)
    : rec_(rec && rec->enabled() ? rec : nullptr),
      name_(name),
      parent_(parent),
      op_(op),
      start_ns_(rec_ ? now_ns() : 0) {
  if (rec_) id_ = rec_->next_id();
}

Span::~Span() {
  if (open_) end_ms();
}

void Span::tag(const std::string& key, const std::string& value) {
  if (!rec_) return;
  if (!tags_.empty()) tags_ += ';';
  tags_ += key + "=" + value;
}

double Span::end_ms() {
  if (!open_ || !rec_) {
    open_ = false;
    return 0.0;
  }
  const std::int64_t end = now_ns();
  rec_->add(SpanRecord{id_, parent_, op_, thread_ordinal(), start_ns_, end, name_, tags_});
  open_ = false;
  return ms_between(start_ns_, end);
}

// ---------------------------------------------------------------------------
// Result file
// ---------------------------------------------------------------------------

void Result::fail(const std::string& message) {
  if (errors.size() < 20) errors.push_back(message);
  else if (errors.size() == 20) errors.push_back("... further errors omitted");
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

}  // namespace

void Result::write_json(const std::string& path) const {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(workload) << ",\"threads\":{\"nproc\":" << threads.nproc << ",\"omp_threads\":" << threads.omp_threads
    << ",\"runnable\":" << threads.runnable << ",\"spawned\":" << threads.spawned
    << ",\"observed\":" << threads.observed << "}"
    << ",\"setup_s\":" << json_array(setup_s) << ",\"window_s\":" << json_number(window_s)
    << ",\"work\":" << json_number(work) << ",\"work_unit\":" << json_string(work_unit)
    << ",\"op_ms\":" << json_array(op_ms) << ",\"attempted\":" << attempted
    << ",\"failed\":" << failed << ",\"peak_rss_mb\":" << json_number(peak_rss_mb)
    << ",\"untraced_op_ms\":" << json_array(untraced_op_ms) << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) o << (i ? "," : "") << json_string(errors[i]);
  o << "],\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters) {
    o << (first ? "" : ",") << json_string(k) << ":" << json_number(v);
    first = false;
  }
  o << "},\"info\":{";
  first = true;
  for (const auto& [k, v] : info) {
    o << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  o << "}}\n";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << o.str();
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

}  // namespace perf
