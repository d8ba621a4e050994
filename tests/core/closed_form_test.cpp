#include "core/closed_form.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ode/catalog.hpp"
#include "ode/equation_system.hpp"

namespace deproto::core {
namespace {

// Figure 5 / reality-check parameters: N = 100000, b = 2 contacts each
// way, so beta = 2b = 4, gamma = 1e-3, alpha = 1e-6.
const EndemicRates kFig5{.beta = 4.0, .gamma = 1e-3, .alpha = 1e-6};
// Figures 7/8 parameters (b = 2).
const EndemicRates kFig7{.beta = 4.0, .gamma = 0.1, .alpha = 0.001};
// Figures 9/10 (churn) parameters (b = 32).
const EndemicRates kFig9{.beta = 64.0, .gamma = 0.1, .alpha = 0.005};

TEST(EndemicAnalysisTest, EquilibriumMatchesEquationTwoAtFig5Params) {
  // Paper: "the number of stashers ~ 100" in a 100,000-host system.
  const EndemicExpectation e = endemic_expectation(100000, kFig5);
  EXPECT_NEAR(e.stashers, 100.0, 1.0);       // (1-2.5e-4)/1001 * 1e5 = 99.88
  EXPECT_NEAR(e.receptives, 25.0, 0.1);      // gamma/beta * 1e5
  EXPECT_NEAR(e.averse, 99875.0, 5.0);
  // The three fractions fill the simplex.
  const EndemicEquilibrium eq = endemic_equilibrium(kFig5);
  EXPECT_NEAR(eq.x + eq.y + eq.z, 1.0, 1e-12);
}

TEST(EndemicAnalysisTest, EquilibriumIsAFixedPointOfTheOde) {
  const EndemicEquilibrium eq = endemic_equilibrium(kFig7);
  // x-dot = -beta x y + alpha z = 0 and friends.
  EXPECT_NEAR(-kFig7.beta * eq.x * eq.y + kFig7.alpha * eq.z, 0.0, 1e-15);
  EXPECT_NEAR(kFig7.beta * eq.x * eq.y - kFig7.gamma * eq.y, 0.0, 1e-15);
  EXPECT_NEAR(kFig7.gamma * eq.y - kFig7.alpha * eq.z, 0.0, 1e-15);
}

TEST(EndemicAnalysisTest, RatesFollowCatalogParameterOrder) {
  // EndemicRates takes (beta, gamma, alpha) in ode::catalog::endemic's
  // order, so its equilibrium zeroes the catalog system built from the
  // same three numbers.
  const EndemicEquilibrium eq = endemic_equilibrium(kFig7);
  const ode::EquationSystem sys =
      ode::catalog::endemic(kFig7.beta, kFig7.gamma, kFig7.alpha);
  const std::vector<double> point = {eq.x, eq.y, eq.z};
  std::vector<double> rhs(3);
  sys.evaluate(point, rhs);
  for (const double d : rhs) EXPECT_NEAR(d, 0.0, 1e-15);
}

TEST(EndemicAnalysisTest, RequiresBetaAboveGamma) {
  // beta = 1, equal to gamma: only (1, 0, 0) is stable.
  EXPECT_THROW(
      (void)endemic_equilibrium({.beta = 1.0, .gamma = 1.0, .alpha = 0.1}),
      std::invalid_argument);
}

TEST(EndemicAnalysisTest, SigmaRequiresPositiveAlpha) {
  EXPECT_NEAR(endemic_sigma(kFig7), 3.9 / 101.0, 1e-15);
  // alpha = 0 has no second equilibrium to linearize around.
  EXPECT_THROW(
      (void)endemic_sigma({.beta = 4.0, .gamma = 0.1, .alpha = 0.0}),
      std::invalid_argument);
}

TEST(EndemicAnalysisTest, StabilityAlwaysHolds) {
  for (const EndemicRates& rates : {kFig5, kFig7, kFig9}) {
    const num::StabilityReport r = endemic_stability(rates);
    EXPECT_LT(r.trace, 0.0);
    EXPECT_GT(r.determinant, 0.0);
    EXPECT_TRUE(r.stable);
  }
}

TEST(EndemicAnalysisTest, EigenCaseComplexAtFigure2Params) {
  // Figure 2: stable spiral -> complex-conjugate case.
  const EndemicRates fig2{.beta = 4.0, .gamma = 1.0, .alpha = 0.01};
  EXPECT_EQ(endemic_eigen_case(fig2), num::EigenCase::ComplexConjugate);
}

TEST(EndemicAnalysisTest, ExtinctionProbabilityHalvesPerStasher) {
  EXPECT_DOUBLE_EQ(extinction_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(extinction_probability(1.0), 0.5);
  EXPECT_DOUBLE_EQ(extinction_probability(10.0), std::pow(0.5, 10.0));
  EXPECT_THROW((void)extinction_probability(-1.0), std::invalid_argument);
}

TEST(EndemicAnalysisTest, LongevityTableMatchesPaper) {
  // "If a protocol period is 6 minutes long, N = 1024 and 50 replicas
  // gives us an expected object longevity of 1.28e10 years."
  EXPECT_NEAR(longevity_years(50.0, 6.0) / 1.28e10, 1.0, 0.02);
  // "With N = 2^20 and 100 replicas, we get an object lifetime of
  // 1.45e25 years."
  EXPECT_NEAR(longevity_years(100.0, 6.0) / 1.45e25, 1.0, 0.02);
}

TEST(EndemicAnalysisTest, LongevityIsNcWhenStashersAreLogN) {
  // y_inf = c log2 N  =>  extinction probability N^-c.
  const double n = 4096.0;
  const double c = 3.0;
  EXPECT_NEAR(extinction_probability(c * std::log2(n)),
              std::pow(n, -c), 1e-20);
}

TEST(EndemicAnalysisTest, RealityCheckMatchesSection5) {
  // N = 100,000 hosts: a host stores a given file 0.1% of the time, in
  // spells of ~100 hours, at ~3.9e-3 bps for an 88.2 KB file.
  const RealityCheck rc = reality_check(100000, kFig5, 6.0, 88.2);
  EXPECT_NEAR(rc.stash_fraction, 0.001, 0.0001);
  EXPECT_NEAR(rc.spell_periods, 1000.0, 1e-9);
  EXPECT_NEAR(rc.spell_hours, 100.0, 1e-9);
  EXPECT_NEAR(rc.interval_hours, 100000.0, 2000.0);
  EXPECT_NEAR(rc.bandwidth_bps, 3.92e-3, 0.1e-3);
}

TEST(EndemicAnalysisTest, CreationIntervalFigure8Discrepancy) {
  // The paper quotes "one stasher created every 40.6 seconds" for Figure 8
  // (N = 1000, 6-minute periods) alongside "stable number of stashers
  // 88.63". Equation (2) with the *stated* alpha = 0.001 gives y_inf ~ 9.7;
  // the quoted numbers correspond to alpha = 0.01. We verify the 40.6 s
  // figure under alpha = 0.01 and record the discrepancy.
  const EndemicRates fig8_quoted{.beta = 4.0, .gamma = 0.1, .alpha = 0.01};
  const EndemicExpectation e = endemic_expectation(1000, fig8_quoted);
  EXPECT_NEAR(e.stashers, 88.63, 0.05);
  EXPECT_NEAR(stasher_creation_interval_seconds(1000, fig8_quoted, 360.0),
              40.6, 0.2);
  // And the stated-alpha variant differs by ~an order of magnitude.
  const EndemicExpectation stated = endemic_expectation(1000, kFig7);
  EXPECT_NEAR(stated.stashers, 9.65, 0.05);
}

TEST(LvAnalysisTest, ConvergenceComplexityClosedForm) {
  // (x, y)(t) = (u0 e^{-3pt}, 1 - (6p u0 t + v0) e^{-3pt}).
  const LvConvergence conv{.u0 = 0.1, .v0 = 0.05, .p = 1.0};
  EXPECT_NEAR(conv.x(0.0), 0.1, 1e-12);
  EXPECT_NEAR(conv.y(0.0), 0.95, 1e-12);
  EXPECT_NEAR(conv.x(2.0), 0.1 * std::exp(-6.0), 1e-12);
  EXPECT_NEAR(conv.y(10.0), 1.0, 1e-8);  // converges to all-y
}

TEST(LvAnalysisTest, PeriodsToMinorityIsLogarithmic) {
  // O(log N) periods to reach O(1) minority processes.
  const double p = 0.01;
  const double t1 = lv_periods_to_one_process(1000, 0.4, p);
  const double t2 = lv_periods_to_one_process(1000000, 0.4, p);
  // N x1000 => + log(1000)/(3p) periods.
  EXPECT_NEAR(t2 - t1, std::log(1000.0) / (3.0 * p), 1e-6);
  EXPECT_THROW((void)lv_periods_to_minority(0.0, 0.1, p),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(lv_periods_to_minority(0.1, 0.2, p), 0.0);
}

TEST(LvAnalysisTest, Figure11TimescaleIsRight) {
  // Figure 11: N = 100,000, start (60k, 40k), p = 0.01, converged by
  // t ~ 500. The linearized estimate puts the minority below one process
  // within the same order of magnitude.
  const double t = lv_periods_to_one_process(100000, 0.4, 0.01);
  EXPECT_GT(t, 100.0);
  EXPECT_LT(t, 1000.0);
}

}  // namespace
}  // namespace deproto::core
