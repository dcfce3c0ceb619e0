#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "geo/polar_stereo.hpp"
#include "geo/wgs84.hpp"
#include "h5lite/granule_io.hpp"
#include "util/rng.hpp"

namespace is2::core {

namespace {

/// Seconds since 2019-11-01 00:00 UTC for a November 2019 timestamp.
double epoch_s(int day, int hour, int minute, int second) {
  return ((static_cast<double>(day - 1) * 24.0 + hour) * 60.0 + minute) * 60.0 + second;
}

/// Shift vector from Table I's "distance / direction" notation; directions
/// are compass bearings mapped onto the projected grid (+x east, +y north).
geo::Xy compass_shift(double dist_m, const char* dir) {
  const std::string d(dir);
  double ux = 0.0, uy = 0.0;
  if (d == "N") { ux = 0; uy = 1; }
  else if (d == "S") { ux = 0; uy = -1; }
  else if (d == "E") { ux = 1; uy = 0; }
  else if (d == "W") { ux = -1; uy = 0; }
  else if (d == "NE") { ux = M_SQRT1_2; uy = M_SQRT1_2; }
  else if (d == "NW") { ux = -M_SQRT1_2; uy = M_SQRT1_2; }
  else if (d == "SE") { ux = M_SQRT1_2; uy = -M_SQRT1_2; }
  else if (d == "SW") { ux = -M_SQRT1_2; uy = -M_SQRT1_2; }
  return {dist_m * ux, dist_m * uy};
}

std::string make_granule_id(int day, int hour, int minute, int second, int rgt) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "ATL03_201911%02d%02d%02d%02d_%04d0510", day, hour, minute,
                second, rgt);
  return buf;
}

}  // namespace

std::vector<CoincidentPair> ross_sea_november_2019() {
  // Table I verbatim: IS2 time, S2 time, dt [min], S2 shift (distance/dir).
  struct Row {
    int day, h1, m1, s1;   // IS2
    int d2, h2, m2, s2;    // S2
    double dt_min;
    double shift_m;
    const char* shift_dir;
    int rgt;
  };
  const Row rows[] = {
      {3, 18, 44, 32, 3, 18, 34, 59, 9.55, 550.0, "NW", 580},
      {4, 19, 53, 11, 4, 19, 45, 29, 7.70, 0.0, "N", 594},
      {13, 19, 10, 53, 13, 18, 34, 59, 35.90, 200.0, "W", 731},
      {16, 19, 28, 13, 16, 18, 44, 59, 43.23, 0.0, "N", 777},
      {17, 19, 2, 34, 17, 18, 15, 9, 47.57, 530.0, "NW", 792},
      {20, 19, 19, 52, 20, 20, 5, 29, 45.62, 400.0, "NW", 838},
      {23, 18, 2, 55, 23, 18, 34, 59, 32.07, 150.0, "E", 883},
      {26, 18, 20, 14, 26, 18, 44, 59, 24.75, 350.0, "SW", 929},
  };

  std::vector<CoincidentPair> pairs;
  int idx = 1;
  for (const Row& r : rows) {
    CoincidentPair p;
    p.index = idx++;
    p.granule_id = make_granule_id(r.day, r.h1, r.m1, r.s1, r.rgt);
    char t1[40], t2[40];
    std::snprintf(t1, sizeof t1, "2019/11/%02d %02d:%02d:%02d", r.day, r.h1, r.m1, r.s1);
    std::snprintf(t2, sizeof t2, "2019/11/%02d %02d:%02d:%02d", r.d2, r.h2, r.m2, r.s2);
    p.is2_time_utc = t1;
    p.s2_time_utc = t2;
    p.is2_epoch_s = epoch_s(r.day, r.h1, r.m1, r.s1);
    p.s2_epoch_s = epoch_s(r.d2, r.h2, r.m2, r.s2);
    p.dt_minutes = r.dt_min;
    p.s2_shift_applied = compass_shift(r.shift_m, r.shift_dir);
    pairs.push_back(p);
  }
  return pairs;
}

Campaign::Campaign(const PipelineConfig& config)
    : config_(config), corrections_(config.seed ^ 0xC044ull), pairs_(ross_sea_november_2019()) {}

geo::GroundTrack Campaign::track(std::size_t k) const {
  // Spread the eight tracks across the Ross Sea box; near-meridional
  // headings with per-pair variation, as polar-orbiting passes have.
  const geo::PolarStereo proj = geo::PolarStereo::epsg3976();
  util::Rng rng = util::Rng(config_.seed).fork(0x72ACull + k);
  const double lon = rng.uniform(-178.0, -150.0);
  const double lat = rng.uniform(-77.0, -73.5);
  const geo::Xy origin = proj.forward({lon, lat});
  const double heading = rng.uniform(0.0, 2.0 * geo::pi);
  return geo::GroundTrack(origin, heading);
}

atl03::SurfaceModel Campaign::surface(std::size_t k) const {
  atl03::SurfaceConfig sc = config_.surface;
  sc.length_m = config_.track_length_m;
  return atl03::SurfaceModel(sc, track(k), corrections_,
                             util::hash64(config_.seed * 131 + k + 7));
}

PairDataset Campaign::generate(std::size_t k) const {
  const CoincidentPair& pair = pairs_.at(k);
  const atl03::SurfaceModel surf = surface(k);

  atl03::PhotonSimulator sim(config_.instrument, util::hash64(config_.seed * 977 + k));
  atl03::Granule granule = sim.simulate_granule(surf, pair.granule_id, pair.is2_epoch_s);

  s2::SceneSimulator scene_sim(config_.scene, util::hash64(config_.seed * 499 + k + 3));
  s2::Scene scene = scene_sim.render(surf, pair.true_drift(), pair.s2_epoch_s);

  s2::SegmentationConfig seg_cfg = config_.segmentation;
  seg_cfg.seed = util::hash64(config_.seed * 263 + k);
  s2::SegmentationResult seg = s2::segment(scene.image, seg_cfg);
  const s2::SegmentationScore score = s2::score_segmentation(seg.labels, scene.truth_class);

  return PairDataset{pair,
                     std::move(granule),
                     std::move(seg.labels),
                     std::move(scene.truth_class),
                     score.accuracy,
                     seg.thick_cloud_pixels};
}

void write_shards(const atl03::Granule& granule, std::size_t pair_index,
                  std::size_t chunks_per_beam, const std::string& dir, ShardSet& shards) {
  const double chunk_len = granule.track_length / static_cast<double>(chunks_per_beam);
  for (const auto& beam : granule.beams) {
    for (std::size_t c = 0; c < chunks_per_beam; ++c) {
      // First/last chunks are open-ended: footprint jitter can push photons
      // slightly outside [0, track_length) and every photon must land in
      // exactly one shard.
      const double lo = c == 0 ? -std::numeric_limits<double>::infinity()
                               : static_cast<double>(c) * chunk_len;
      const double hi = (c + 1 == chunks_per_beam) ? std::numeric_limits<double>::infinity()
                                                   : static_cast<double>(c + 1) * chunk_len;
      atl03::Granule shard;
      shard.id = granule.id + "#" + atl03::beam_name(beam.beam) + "c" + std::to_string(c);
      shard.epoch_time = granule.epoch_time;
      shard.track_origin = granule.track_origin;
      shard.track_heading = granule.track_heading;
      shard.track_length = granule.track_length;
      shard.seed = granule.seed;

      atl03::BeamData bd;
      bd.beam = beam.beam;
      double t_lo = 1e30, t_hi = -1e30;
      for (std::size_t i = 0; i < beam.size(); ++i) {
        if (beam.along_track[i] < lo || beam.along_track[i] >= hi) continue;
        bd.delta_time.push_back(beam.delta_time[i]);
        bd.lat.push_back(beam.lat[i]);
        bd.lon.push_back(beam.lon[i]);
        bd.h.push_back(beam.h[i]);
        bd.along_track.push_back(beam.along_track[i]);
        bd.signal_conf.push_back(beam.signal_conf[i]);
        if (!beam.truth_class.empty()) bd.truth_class.push_back(beam.truth_class[i]);
        t_lo = std::min(t_lo, beam.delta_time[i]);
        t_hi = std::max(t_hi, beam.delta_time[i]);
      }
      // Background bins overlapping the chunk's time range (1-bin margin).
      for (std::size_t b = 0; b < beam.bckgrd_delta_time.size(); ++b) {
        const double t = beam.bckgrd_delta_time[b];
        if (t < t_lo - 1.0 || t > t_hi + 1.0) continue;
        bd.bckgrd_delta_time.push_back(t);
        bd.bckgrd_rate.push_back(beam.bckgrd_rate[b]);
      }
      if (bd.h.empty()) continue;
      shard.beams.push_back(std::move(bd));

      char fname[512];
      std::snprintf(fname, sizeof fname, "%s/pair%zu_%s_c%zu.h5l", dir.c_str(), pair_index,
                    atl03::beam_name(beam.beam), c);
      h5::save_granule(shard, fname);
      shards.files.emplace_back(fname);
      shards.pair_of_file.push_back(pair_index);
    }
  }
}

}  // namespace is2::core
