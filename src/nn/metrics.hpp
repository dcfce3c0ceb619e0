// Classification metrics: confusion matrix, accuracy, per-class and
// macro-averaged precision/recall/F1 (the paper's Table III and Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "atl03/types.hpp"

namespace is2::nn {

class ConfusionMatrix {
 public:
  void add(std::uint8_t truth, std::uint8_t predicted);

  std::uint64_t count(int truth, int predicted) const { return m_[truth][predicted]; }
  std::uint64_t total() const;
  std::uint64_t row_total(int truth) const;
  std::uint64_t col_total(int predicted) const;

  double accuracy() const;
  double precision(int cls) const;  ///< TP / (TP + FP)
  double recall(int cls) const;     ///< TP / (TP + FN)
  double f1(int cls) const;
  double macro_precision() const;
  double macro_recall() const;
  double macro_f1() const;
  /// Per-class recall as percentages (Fig. 4's diagonal).
  std::array<double, atl03::kNumClasses> per_class_recall() const;

  /// Row-normalized percentage matrix rendered as ASCII (Fig. 4).
  std::string render() const;

 private:
  std::uint64_t m_[atl03::kNumClasses][atl03::kNumClasses] = {};
};

struct Metrics {
  double accuracy = 0.0;
  double precision = 0.0;  ///< macro
  double recall = 0.0;     ///< macro
  double f1 = 0.0;         ///< macro
  ConfusionMatrix confusion;
};

Metrics compute_metrics(const std::vector<std::uint8_t>& truth,
                        const std::vector<std::uint8_t>& predicted);

}  // namespace is2::nn
