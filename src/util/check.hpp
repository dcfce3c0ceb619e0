// Argument checks shared by the configuration validators.
//
// Threading: pure functions of their arguments, safe from any thread.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

namespace is2::util {

/// Throws std::invalid_argument ("<what> must be finite and positive (got
/// <value>)") unless `value` is a finite length above zero, or at zero when
/// `zero_ok`. A bare `value <= 0` test is not enough: every comparison with
/// NaN is false, so NaN passes it, and so does an infinite length.
inline void check_length(double value, const std::string& what, bool zero_ok = false) {
  if (std::isfinite(value) && (value > 0.0 || (zero_ok && value == 0.0))) return;
  throw std::invalid_argument(what + " must be finite and " + (zero_ok ? ">= 0" : "positive") +
                              " (got " + std::to_string(value) + ")");
}

}  // namespace is2::util
