#include "core/closed_form.hpp"

#include <cmath>
#include <stdexcept>

namespace deproto::core {

namespace {
constexpr double kMinutesPerYear = 365.25 * 24.0 * 60.0;
}

EndemicEquilibrium endemic_equilibrium(const EndemicRates& rates) {
  if (!(rates.beta > rates.gamma)) {
    throw std::invalid_argument(
        "endemic_equilibrium: requires beta > gamma (else the trivial "
        "equilibrium (1,0,0) is the only stable one)");
  }
  EndemicEquilibrium eq;
  eq.x = rates.gamma / rates.beta;
  eq.y = (1.0 - eq.x) / (1.0 + rates.gamma / rates.alpha);
  eq.z = (1.0 - eq.x) / (1.0 + rates.alpha / rates.gamma);
  return eq;
}

double endemic_sigma(const EndemicRates& rates) {
  return (rates.beta - rates.gamma) / (1.0 + rates.gamma / rates.alpha);
}

num::StabilityReport endemic_stability(const EndemicRates& rates) {
  const double sigma = endemic_sigma(rates);
  return num::classify_matrix(
      num::endemic_matrix_A(sigma, rates.alpha, rates.gamma));
}

num::EigenCase endemic_eigen_case(const EndemicRates& rates) {
  const num::StabilityReport report = endemic_stability(rates);
  constexpr double kZero = 1e-12;
  if (report.discriminant < -kZero) return num::EigenCase::ComplexConjugate;
  if (report.discriminant > kZero) return num::EigenCase::RealDistinct;
  return num::EigenCase::RealEqual;
}

EndemicExpectation endemic_expectation(std::size_t n,
                                       const EndemicRates& rates) {
  const EndemicEquilibrium eq = endemic_equilibrium(rates);
  const auto nn = static_cast<double>(n);
  return EndemicExpectation{eq.x * nn, eq.y * nn, eq.z * nn};
}

double extinction_probability(double stasher_count) {
  if (stasher_count < 0.0) {
    throw std::invalid_argument("extinction_probability: negative count");
  }
  return std::pow(0.5, stasher_count);
}

double longevity_years(double stasher_count, double period_minutes) {
  return period_minutes / extinction_probability(stasher_count) /
         kMinutesPerYear;
}

double stasher_creation_interval_seconds(std::size_t n,
                                         const EndemicRates& rates,
                                         double period_seconds) {
  const EndemicEquilibrium eq = endemic_equilibrium(rates);
  // At equilibrium, creations balance deletions: gamma * y_inf * N per
  // period (each stasher creates new stashers at rate beta * x_inf = gamma).
  const double creations_per_period =
      rates.gamma * eq.y * static_cast<double>(n);
  if (creations_per_period <= 0.0) {
    throw std::invalid_argument("no stasher creation at these parameters");
  }
  return period_seconds / creations_per_period;
}

RealityCheck reality_check(std::size_t n, const EndemicRates& rates,
                           double period_minutes, double file_kilobytes) {
  const EndemicEquilibrium eq = endemic_equilibrium(rates);
  RealityCheck rc;
  rc.stash_fraction = eq.y;
  rc.spell_periods = 1.0 / rates.gamma;
  rc.spell_hours = rc.spell_periods * period_minutes / 60.0;
  // A host stores the file for `spell` out of every `spell / y_inf`
  // periods on average.
  rc.interval_hours = rc.spell_hours / eq.y;
  rc.transfers_per_period = rates.gamma * eq.y * static_cast<double>(n);
  const double bits = file_kilobytes * 1024.0 * 8.0;
  const double period_seconds = period_minutes * 60.0;
  // Each transfer occupies bandwidth at both endpoints (send + receive).
  rc.bandwidth_bps = 2.0 * rc.transfers_per_period * bits /
                     (static_cast<double>(n) * period_seconds);
  return rc;
}

double LvConvergence::x(double t) const {
  return u0 * std::exp(-3.0 * p * t);
}

double LvConvergence::y(double t) const {
  return 1.0 - (6.0 * p * u0 * t + v0) * std::exp(-3.0 * p * t);
}

double lv_periods_to_minority(double u0, double epsilon, double p) {
  if (!(u0 > 0.0) || !(epsilon > 0.0) || !(p > 0.0)) {
    throw std::invalid_argument("lv_periods_to_minority: bad arguments");
  }
  if (epsilon >= u0) return 0.0;
  return std::log(u0 / epsilon) / (3.0 * p);
}

double lv_periods_to_one_process(std::size_t n, double u0, double p) {
  return lv_periods_to_minority(u0, 1.0 / static_cast<double>(n), p);
}

}  // namespace deproto::core
