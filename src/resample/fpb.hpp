// First-photon bias correction.
//
// Single-photon detectors go blind for a dead time after each trigger, so on
// bright (multi-photon) returns the recorded heights skew toward the first
// (highest) photons, biasing the window mean high by ~mm-cm depending on
// return rate and surface spread. ATL03 ships a correction derived from the
// instrument model; here the corrector calibrates itself by Monte-Carlo
// simulation of the same dead-time model the photon simulator applies, then
// corrects segment means via bilinear interpolation of the (rate, sigma)
// bias table.
//
// The calibration is shared per process. The table is a pure function of
// (dead_time_m, channels after clamping to >= 1, seed), so the first
// construction for a key runs the Monte-Carlo (126 table cells x 4000
// simulated shots) and stores the table; every later construction with the
// same key, and every copy, shares that one immutable table for the rest of
// the process. Values are bit for bit those a fresh calibration would give.
//
// Threading contract: constructing correctors is thread-safe — concurrent
// first constructions of one key calibrate it once and the others wait for
// that table; distinct keys calibrate one at a time. A constructed corrector
// holds no mutable state, so bias() and apply() may run on any number of
// threads at once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "resample/segmenter.hpp"

namespace is2::resample {

class FirstPhotonBiasCorrector {
 public:
  /// `dead_time_m` and `channels` must match the instrument (ATLAS strong
  /// beams: 16 channels); the table spans rate in [0.25, 10] photons/shot
  /// and sigma in [0.01, 0.25] m.
  explicit FirstPhotonBiasCorrector(double dead_time_m = 0.45, int channels = 16,
                                    std::uint64_t seed = 0xF1B5);

  /// Expected bias of the mean recorded height for a surface return with the
  /// given per-shot photon rate and per-photon height sigma. Positive = the
  /// measurement reads high.
  double bias(double rate_per_shot, double sigma_m) const;

  /// Subtract the estimated bias from each segment's h_mean/h_median.
  void apply(std::vector<Segment>& segments) const;

  double dead_time_m() const { return dead_time_m_; }
  int channels() const { return channels_; }

  /// The calibrated (rate, sigma) grid and bias values, immutable once built.
  struct Table;

 private:
  double dead_time_m_;
  int channels_;
  std::shared_ptr<const Table> table_;
};

}  // namespace is2::resample
