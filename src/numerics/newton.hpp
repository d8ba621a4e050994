#pragma once

// Equilibrium finding: damped Newton on f(x) = 0 with the exact polynomial
// Jacobian, and a multi-start search over the probability simplex that
// recovers all equilibria of the paper's systems (endemic eq.(2), the four
// LV fixed points).

#include <optional>
#include <vector>

#include "numerics/vector.hpp"
#include "ode/equation_system.hpp"

namespace deproto::num {

/// Solve f(x) = 0 from initial guess x0: at most 200 damped Newton steps
/// to ||f||_inf < 1e-12, each step halved down to a 1e-6 fraction until
/// the residual falls. Returns nullopt when Newton fails (singular
/// Jacobian with no useful perturbation, or no convergence).
[[nodiscard]] std::optional<Vec> newton_solve(const ode::EquationSystem& sys,
                                              Vec x0);

/// All distinct equilibria found by multi-start Newton from a 5-point grid
/// per dimension over [0, 1]^m plus the simplex corners and centroid; two
/// roots closer than 1e-6 (2-norm) are one. Points are returned in
/// deterministic (lexicographically sorted) order.
[[nodiscard]] std::vector<Vec> find_equilibria(const ode::EquationSystem& sys);

}  // namespace deproto::num
