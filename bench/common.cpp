#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <thread>

#include "h5lite/granule_io.hpp"
#include "mapred/engine.hpp"
#include "nn/serialize.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace is2::bench {

namespace fs = std::filesystem;

std::string cache_root() {
  if (const char* env = std::getenv("IS2_BENCH_CACHE")) return env;
  return (fs::temp_directory_path() / "is2seaice_bench_cache").string();
}

namespace {

std::string campaign_key(const core::PipelineConfig& cfg, std::size_t n_pairs) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "campaign_L%.0f_c%zu_s%llu_p%zu",
                cfg.track_length_m, cfg.chunks_per_beam,
                static_cast<unsigned long long>(cfg.seed), n_pairs);
  return buf;
}

}  // namespace

void save_raster(const s2::ClassRaster& raster, const std::string& path) {
  h5::File f;
  f.put<std::uint8_t>("/raster/labels", raster.data(),
                      {raster.rows(), raster.cols()});
  f.set_attr("/raster/x0", raster.transform().x0);
  f.set_attr("/raster/y0", raster.transform().y0);
  f.set_attr("/raster/pixel", raster.transform().pixel);
  f.save(path);
}

s2::ClassRaster load_raster(const std::string& path) {
  const h5::File f = h5::File::load(path);
  const auto shape = f.shape("/raster/labels");
  s2::GeoTransform gt{f.attr_double("/raster/x0"), f.attr_double("/raster/y0"),
                      f.attr_double("/raster/pixel")};
  s2::ClassRaster raster(shape[0], shape[1], gt);
  raster.data() = f.get<std::uint8_t>("/raster/labels");
  return raster;
}

void save_kv(const std::string& path, const std::vector<std::pair<std::string, double>>& kv) {
  std::ofstream out(path);
  for (const auto& [k, v] : kv) out << k << "=" << std::setprecision(17) << v << "\n";
}

std::optional<std::vector<std::pair<std::string, double>>> load_kv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<std::pair<std::string, double>> kv;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv.emplace_back(line.substr(0, eq), std::stod(line.substr(eq + 1)));
  }
  return kv;
}

CampaignData load_or_generate_campaign(const core::PipelineConfig& config, std::size_t n_pairs) {
  CampaignData data;
  data.config = config;
  data.pairs = core::ross_sea_november_2019();
  if (n_pairs < data.pairs.size()) data.pairs.resize(n_pairs);

  const fs::path dir = fs::path(cache_root()) / campaign_key(config, n_pairs);
  data.cache_dir = dir.string();
  const fs::path manifest = dir / "MANIFEST";

  if (fs::exists(manifest)) {
    // Cache hit: read shard list + rasters + drifts.
    std::ifstream in(manifest);
    std::size_t n_files = 0;
    in >> n_files;
    for (std::size_t i = 0; i < n_files; ++i) {
      std::string file;
      std::size_t pair;
      in >> file >> pair;
      data.shards.files.push_back((dir / file).string());
      data.shards.pair_of_file.push_back(pair);
    }
    for (std::size_t k = 0; k < n_pairs; ++k) {
      data.rasters.push_back(load_raster((dir / ("raster" + std::to_string(k) + ".h5l")).string()));
      double dx, dy;
      in >> dx >> dy;
      data.drifts.push_back({dx, dy});
    }
    return data;
  }

  std::fprintf(stderr, "[bench] generating campaign (%zu pairs, %.0f km tracks) into %s ...\n",
               n_pairs, config.track_length_m / 1000.0, dir.c_str());
  fs::create_directories(dir);
  const core::Campaign campaign(config);

  // One engine task per pair, as many at once as the host has cores. A
  // pair's output depends only on the seed and its index, and every file it
  // writes is named by its index, so the cache is byte-identical to a serial
  // run; the manifest and the log list pairs in pair order.
  struct Generated {
    core::ShardSet shards;
    std::optional<s2::ClassRaster> raster;
    std::size_t photons = 0;
    double segmentation_accuracy = 0.0;
  };
  mapred::Engine engine({1, std::max(1u, std::thread::hardware_concurrency())});
  std::vector<Generated> generated = engine.run_stage<Generated>(n_pairs, [&](std::size_t k) {
    core::PairDataset pair = campaign.generate(k);
    Generated g;
    core::write_shards(pair.granule, k, config.chunks_per_beam, dir.string(), g.shards);
    save_raster(pair.s2_labels, (dir / ("raster" + std::to_string(k) + ".h5l")).string());
    g.raster = std::move(pair.s2_labels);
    g.photons = pair.granule.total_photons();
    g.segmentation_accuracy = pair.segmentation_accuracy;
    return g;
  });

  for (std::size_t k = 0; k < n_pairs; ++k) {
    Generated& g = generated[k];
    std::fprintf(stderr, "[bench]   pair %zu: %zu photons, S2 segmentation accuracy %.3f\n",
                 k + 1, g.photons, g.segmentation_accuracy);
    data.shards.files.insert(data.shards.files.end(), g.shards.files.begin(),
                             g.shards.files.end());
    data.shards.pair_of_file.insert(data.shards.pair_of_file.end(),
                                    g.shards.pair_of_file.begin(), g.shards.pair_of_file.end());
    data.rasters.push_back(std::move(*g.raster));
    data.drifts.push_back(campaign.pairs()[k].true_drift());
  }

  std::ofstream out(manifest.string() + ".tmp");
  out << data.shards.files.size() << "\n";
  for (std::size_t i = 0; i < data.shards.files.size(); ++i)
    out << fs::path(data.shards.files[i]).filename().string() << " "
        << data.shards.pair_of_file[i] << "\n";
  for (const auto& d : data.drifts) out << std::setprecision(17) << d.x << " " << d.y << "\n";
  out.close();
  fs::rename(manifest.string() + ".tmp", manifest);
  return data;
}

atl03::Granule regenerate_granule(const CampaignData& data, std::size_t pair_index) {
  const core::Campaign campaign(data.config);
  const auto surf = campaign.surface(pair_index);
  atl03::PhotonSimulator sim(data.config.instrument,
                             util::hash64(data.config.seed * 977 + pair_index));
  return sim.simulate_granule(surf, data.pairs.at(pair_index).granule_id,
                              data.pairs.at(pair_index).is2_epoch_s);
}

BenchTrainingData build_training_data(const CampaignData& data, std::size_t n_pairs,
                                      std::size_t max_windows, std::uint64_t seed) {
  const core::Campaign campaign(data.config);
  std::vector<core::LabeledPair> labeled;
  for (std::size_t k = 0; k < std::min(n_pairs, data.pairs.size()); ++k) {
    core::PairDataset pd{data.pairs[k], regenerate_granule(data, k), data.rasters[k],
                         data.rasters[k], 0.0, 0};
    labeled.push_back(core::label_pair(pd, campaign.corrections(), data.config));
  }
  auto full = core::assemble_training_data(labeled, data.config, 0.8, seed);

  BenchTrainingData out;
  out.scaler = full.scaler;
  if (full.train.size() > max_windows) {
    // Deterministic subsample of the (already shuffled) training tensor.
    std::vector<std::size_t> idx(max_windows);
    const double stride =
        static_cast<double>(full.train.size()) / static_cast<double>(max_windows);
    for (std::size_t i = 0; i < max_windows; ++i)
      idx[i] = static_cast<std::size_t>(static_cast<double>(i) * stride);
    out.train = full.train.subset(idx);
  } else {
    out.train = std::move(full.train);
  }
  const std::size_t max_test = max_windows / 4;
  if (full.test.size() > max_test) {
    std::vector<std::size_t> idx(max_test);
    const double stride =
        static_cast<double>(full.test.size()) / static_cast<double>(max_test);
    for (std::size_t i = 0; i < max_test; ++i)
      idx[i] = static_cast<std::size_t>(static_cast<double>(i) * stride);
    out.test = full.test.subset(idx);
  } else {
    out.test = std::move(full.test);
  }
  return out;
}

TrainedLstm load_or_train_lstm(const CampaignData& data, std::size_t epochs) {
  const fs::path weights = fs::path(data.cache_dir) / "lstm_weights.h5l";
  const fs::path scaler_path = fs::path(data.cache_dir) / "scaler.h5l";

  util::Rng rng(data.config.seed ^ 0x7517ull);
  TrainedLstm out{nn::make_lstm_model(data.config.sequence_window, 6, rng), {}};

  if (fs::exists(weights) && fs::exists(scaler_path)) {
    nn::load_weights(out.model, weights.string());
    const h5::File f = h5::File::load(scaler_path.string());
    const auto mean = f.get<float>("/scaler/mean");
    const auto stdv = f.get<float>("/scaler/std");
    for (int d = 0; d < resample::FeatureRow::kDim; ++d) {
      out.scaler.mean[d] = mean[static_cast<std::size_t>(d)];
      out.scaler.std[d] = stdv[static_cast<std::size_t>(d)];
    }
    return out;
  }

  std::fprintf(stderr, "[bench] no cached LSTM weights; training (%zu epochs)...\n", epochs);
  const auto td = build_training_data(data, data.pairs.size(), 32'000);
  out.scaler = td.scaler;
  nn::Adam adam(0.003);
  nn::FocalLoss loss(2.0, nn::FocalLoss::balanced_alpha(td.train.y));
  nn::FitConfig fit;
  fit.epochs = epochs;
  fit.batch_size = 32;
  out.model.fit(td.train, loss, adam, fit);

  nn::save_weights(out.model, weights.string());
  h5::File f;
  f.put<float>("/scaler/mean",
               std::span<const float>(out.scaler.mean, resample::FeatureRow::kDim));
  f.put<float>("/scaler/std",
               std::span<const float>(out.scaler.std, resample::FeatureRow::kDim));
  f.save(scaler_path.string());
  return out;
}

}  // namespace is2::bench
