#include "core/failure_compensation.hpp"

#include <cmath>
#include <stdexcept>

namespace deproto::core {

double failure_factor(unsigned occurrences, double f) {
  if (!(f >= 0.0 && f < 1.0)) {
    throw std::invalid_argument("failure_factor: f must lie in [0, 1)");
  }
  if (occurrences <= 1) return 1.0;
  return std::pow(1.0 / (1.0 - f), static_cast<double>(occurrences - 1));
}

}  // namespace deproto::core
