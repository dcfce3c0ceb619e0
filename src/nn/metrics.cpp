#include "nn/metrics.hpp"

#include <cstdio>
#include <stdexcept>

namespace is2::nn {

void ConfusionMatrix::add(std::uint8_t truth, std::uint8_t predicted) {
  if (truth >= atl03::kNumClasses || predicted >= atl03::kNumClasses)
    throw std::invalid_argument("ConfusionMatrix: class index out of range");
  ++m_[truth][predicted];
}

std::uint64_t ConfusionMatrix::total() const {
  std::uint64_t n = 0;
  for (int t = 0; t < atl03::kNumClasses; ++t) n += row_total(t);
  return n;
}

std::uint64_t ConfusionMatrix::row_total(int truth) const {
  std::uint64_t n = 0;
  for (int p = 0; p < atl03::kNumClasses; ++p) n += m_[truth][p];
  return n;
}

std::uint64_t ConfusionMatrix::col_total(int predicted) const {
  std::uint64_t n = 0;
  for (int t = 0; t < atl03::kNumClasses; ++t) n += m_[t][predicted];
  return n;
}

double ConfusionMatrix::accuracy() const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  std::uint64_t diag = 0;
  for (int c = 0; c < atl03::kNumClasses; ++c) diag += m_[c][c];
  return static_cast<double>(diag) / static_cast<double>(n);
}

double ConfusionMatrix::precision(int cls) const {
  const std::uint64_t denom = col_total(cls);
  return denom ? static_cast<double>(m_[cls][cls]) / static_cast<double>(denom) : 0.0;
}

double ConfusionMatrix::recall(int cls) const {
  const std::uint64_t denom = row_total(cls);
  return denom ? static_cast<double>(m_[cls][cls]) / static_cast<double>(denom) : 0.0;
}

double ConfusionMatrix::f1(int cls) const {
  const double p = precision(cls), r = recall(cls);
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

double ConfusionMatrix::macro_precision() const {
  double s = 0.0;
  for (int c = 0; c < atl03::kNumClasses; ++c) s += precision(c);
  return s / atl03::kNumClasses;
}

double ConfusionMatrix::macro_recall() const {
  double s = 0.0;
  for (int c = 0; c < atl03::kNumClasses; ++c) s += recall(c);
  return s / atl03::kNumClasses;
}

double ConfusionMatrix::macro_f1() const {
  double s = 0.0;
  for (int c = 0; c < atl03::kNumClasses; ++c) s += f1(c);
  return s / atl03::kNumClasses;
}

std::array<double, atl03::kNumClasses> ConfusionMatrix::per_class_recall() const {
  std::array<double, atl03::kNumClasses> out{};
  for (int c = 0; c < atl03::kNumClasses; ++c) out[c] = recall(c);
  return out;
}

std::string ConfusionMatrix::render() const {
  std::string out;
  char buf[160];
  out += "row-normalized confusion matrix [%]\n";
  out += "               thick_ice    thin_ice  open_water\n";
  for (int t = 0; t < atl03::kNumClasses; ++t) {
    const double denom = static_cast<double>(row_total(t));
    std::snprintf(buf, sizeof buf, "%-12s", atl03::to_string(static_cast<atl03::SurfaceClass>(t)));
    out += buf;
    for (int p = 0; p < atl03::kNumClasses; ++p) {
      const double pct = denom > 0.0 ? 100.0 * static_cast<double>(m_[t][p]) / denom : 0.0;
      std::snprintf(buf, sizeof buf, "  %10.2f", pct);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

Metrics compute_metrics(const std::vector<std::uint8_t>& truth,
                        const std::vector<std::uint8_t>& predicted) {
  if (truth.size() != predicted.size())
    throw std::invalid_argument("compute_metrics: size mismatch");
  Metrics m;
  for (std::size_t i = 0; i < truth.size(); ++i) m.confusion.add(truth[i], predicted[i]);
  m.accuracy = m.confusion.accuracy();
  m.precision = m.confusion.macro_precision();
  m.recall = m.confusion.macro_recall();
  m.f1 = m.confusion.macro_f1();
  return m;
}

}  // namespace is2::nn
