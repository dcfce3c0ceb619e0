#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace is2::nn {

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::zero_grad(const std::vector<Param>& params) {
  for (const auto& p : params) p.grad->fill(0.0f);
}

void Adam::step(const std::vector<Param>& params) {
  if (m_.empty()) {
    m_.resize(params.size());
    v_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      m_[i].assign(params[i].value->size(), 0.0f);
      v_[i].assign(params[i].value->size(), 0.0f);
    }
  }
  if (m_.size() != params.size())
    throw std::invalid_argument("Adam: parameter list changed between steps");

  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& p = params[i];
    if (m_[i].size() != p.value->size())
      throw std::invalid_argument("Adam: parameter size changed between steps");
    float* w = p.value->data();
    float* g = p.grad->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (std::size_t j = 0; j < p.value->size(); ++j) {
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g[j]);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j]);
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      w[j] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
      g[j] = 0.0f;
    }
  }
}

}  // namespace is2::nn
