#pragma once

// Closed-form results from Sections 4.1.3, 4.2.2 and 5.1: endemic
// equilibria (eq. 2), the sigma/tau/Delta stability quantities (eq. 5), the
// three eigenvalue cases, replica-longevity and reality-check estimates,
// and the LV convergence complexity: the analytic side that the mean-field
// checks (core/mean_field.hpp) and the simulations are compared against.
// All formulas are in *fraction* notation (variables are fractions of N).

#include <cstddef>

#include "numerics/linearization.hpp"

namespace deproto::core {

/// The rates of eq. (1), in the order ode::catalog::endemic and a spec's
/// source.params take them. beta is the per-period contact rate; the
/// Figure 1 push-pull machine realizes it with b = beta/2 contacts each
/// way (Section 4.1.2: N(1-(1-b/N)^2) ~= 2b).
struct EndemicRates {
  double beta = 4.0;     // receptive -> stash contact rate
  double gamma = 0.1;    // stash -> averse rate (replica deletion)
  double alpha = 0.001;  // averse -> receptive rate
};

struct EndemicEquilibrium {
  double x = 0.0;  // receptive fraction  = gamma / beta
  double y = 0.0;  // stash fraction      = (1 - gamma/beta) / (1 + gamma/alpha)
  double z = 0.0;  // averse fraction     = (1 - gamma/beta) / (1 + alpha/gamma)
};

/// The second (non-trivial) equilibrium of eq. (2). Requires beta > gamma.
[[nodiscard]] EndemicEquilibrium endemic_equilibrium(const EndemicRates& rates);

/// sigma = (beta - gamma) / (1 + gamma/alpha)  (eq. 4 quantities), as
/// num::endemic_sigma computes it; throws std::invalid_argument unless
/// alpha > 0.
[[nodiscard]] double endemic_sigma(const EndemicRates& rates);

/// Stability of the second equilibrium via matrix A (Theorem 3: always a
/// stable point when alpha, gamma > 0 and beta > gamma).
[[nodiscard]] num::StabilityReport endemic_stability(const EndemicRates& rates);

/// Which of the three eigenvalue cases of Section 4.1.3 applies.
[[nodiscard]] num::EigenCase endemic_eigen_case(const EndemicRates& rates);

/// Expected number of processes per state at equilibrium in a group of n.
struct EndemicExpectation {
  double receptives = 0.0;
  double stashers = 0.0;
  double averse = 0.0;
};
[[nodiscard]] EndemicExpectation endemic_expectation(
    std::size_t n, const EndemicRates& rates);

/// Probability that all y_inf stashers die before creating a new stasher:
/// (1/2)^{y_inf} (Section 4.1.3, probabilistic safety).
[[nodiscard]] double extinction_probability(double stasher_count);

/// Expected object longevity in years: one extinction opportunity per
/// period => period / (1/2)^{y_inf}.
[[nodiscard]] double longevity_years(double stasher_count,
                                     double period_minutes);

/// Seconds between consecutive new-stasher creations at equilibrium:
/// creations per period = gamma * y_inf * n.
[[nodiscard]] double stasher_creation_interval_seconds(
    std::size_t n, const EndemicRates& rates, double period_seconds);

/// Section 5.1 "Reality check" quantities for one file in a group of n.
struct RealityCheck {
  double stash_fraction = 0.0;    // fraction of time a host stores the file
  double spell_periods = 0.0;     // mean storage spell length = 1/gamma
  double spell_hours = 0.0;
  double interval_hours = 0.0;    // mean time between spells per host
  double transfers_per_period = 0.0;  // system-wide
  double bandwidth_bps = 0.0;     // per host per file; counts both endpoints
};
[[nodiscard]] RealityCheck reality_check(std::size_t n,
                                         const EndemicRates& rates,
                                         double period_minutes,
                                         double file_kilobytes);

// --- LV protocol (Section 4.2.2) -------------------------------------------

/// Convergence complexity near the stable point (0, 1): with protocol
/// normalizer p, (x(t), y(t)) = (u0 e^{-3pt}, 1 - (6p*u0*t + v0) e^{-3pt}).
/// (The paper states the p = 1 form; protocol periods dilate time by 1/p.)
struct LvConvergence {
  double u0 = 0.0;
  double v0 = 0.0;
  double p = 1.0;
  [[nodiscard]] double x(double t) const;
  [[nodiscard]] double y(double t) const;
};

/// Periods until the minority population decays below `epsilon` starting
/// from displacement u0: solves u0 e^{-3pt} = epsilon.
[[nodiscard]] double lv_periods_to_minority(double u0, double epsilon,
                                            double p);

/// O(log N) scaling constant: periods for one minority process to remain
/// out of N, starting from fraction u0 (paper: O(log N) protocol periods).
[[nodiscard]] double lv_periods_to_one_process(std::size_t n, double u0,
                                               double p);

}  // namespace deproto::core
