#include "numerics/newton.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/jacobian.hpp"
#include "numerics/matrix.hpp"

namespace deproto::num {

namespace {
constexpr int kMaxNewtonIter = 200;
constexpr double kResidualTol = 1e-12;  // convergence on ||f||_inf
constexpr double kMinDamping = 1e-6;    // smallest line-search step fraction
constexpr int kGridPoints = 5;          // starts per dimension over [0, 1]
constexpr double kDedupeRadius = 1e-6;  // closer roots (2-norm) are one
}  // namespace

std::optional<Vec> newton_solve(const ode::EquationSystem& sys, Vec x0) {
  const std::size_t m = sys.num_vars();
  if (x0.size() != m) return std::nullopt;

  Vec fx(m);
  for (int it = 0; it < kMaxNewtonIter; ++it) {
    sys.evaluate(x0, fx);
    if (norm_inf(fx) < kResidualTol) return x0;

    Matrix j = jacobian_at(sys, x0);
    Vec step;
    try {
      step = j.solve(fx);
    } catch (const std::runtime_error&) {
      // Singular Jacobian: tiny Tikhonov perturbation, then retry once.
      for (std::size_t d = 0; d < m; ++d) j(d, d) += 1e-10;
      try {
        step = j.solve(fx);
      } catch (const std::runtime_error&) {
        return std::nullopt;
      }
    }

    // Damped update: halve until the residual decreases (or give up).
    const double f0 = norm_inf(fx);
    double damping = 1.0;
    Vec candidate(m), fc(m);
    bool improved = false;
    while (damping >= kMinDamping) {
      for (std::size_t d = 0; d < m; ++d) {
        candidate[d] = x0[d] - damping * step[d];
      }
      sys.evaluate(candidate, fc);
      if (norm_inf(fc) < f0 || norm_inf(fc) < kResidualTol) {
        improved = true;
        break;
      }
      damping /= 2.0;
    }
    if (!improved) return std::nullopt;
    x0 = candidate;
  }
  sys.evaluate(x0, fx);
  if (norm_inf(fx) < kResidualTol) return x0;
  return std::nullopt;
}

std::vector<Vec> find_equilibria(const ode::EquationSystem& sys) {
  const std::size_t m = sys.num_vars();
  std::vector<Vec> found;

  auto consider = [&](Vec start) {
    auto root = newton_solve(sys, std::move(start));
    if (!root) return;
    for (const Vec& r : found) {
      if (distance(r, *root) < kDedupeRadius) return;
    }
    found.push_back(std::move(*root));
  };

  // Regular grid over [0, 1]^m.
  const int g = kGridPoints;
  const auto total = static_cast<std::size_t>(std::pow(g, m));
  // Guard against combinatorial blow-up for larger systems.
  if (total <= 1'000'000) {
    for (std::size_t flat = 0; flat < total; ++flat) {
      std::size_t rem = flat;
      Vec start(m);
      for (std::size_t d = 0; d < m; ++d) {
        const int k = static_cast<int>(rem % g);
        rem /= g;
        start[d] = static_cast<double>(k) / (g - 1);
      }
      consider(std::move(start));
    }
  }
  // Simplex corners and centroid (frequent equilibria in complete systems).
  for (std::size_t d = 0; d < m; ++d) {
    Vec corner(m, 0.0);
    corner[d] = 1.0;
    consider(std::move(corner));
  }
  consider(Vec(m, 1.0 / static_cast<double>(m)));

  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace deproto::num
