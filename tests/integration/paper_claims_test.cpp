// The paper's claims checked end-to-end: Theorem 4's basins of attraction,
// Theorem 3's spiral and the phase-portrait figures' qualitative content
// against the numerics substrate; Section 3's failure factor and Section
// 6's token TTL in simulation, driven by catalog specs through
// api::Experiment.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/experiment.hpp"
#include "core/closed_form.hpp"
#include "core/fluctuations.hpp"
#include "numerics/integrator.hpp"
#include "numerics/phase_portrait.hpp"
#include "numerics/stability.hpp"
#include "ode/catalog.hpp"

namespace deproto {
namespace {

using num::Vec;

/// Integrate the LV system (eq. 7) from (x0, y0) and report the limit.
Vec lv_limit(double x0, double y0, double t_end = 60.0) {
  const auto sys = ode::catalog::lv_partitionable();
  const num::OdeFunction f = num::ode_function(sys);
  Vec x{x0, y0, 1.0 - x0 - y0};
  num::AdaptiveOptions opts;
  opts.abs_tol = opts.rel_tol = 1e-11;
  num::integrate_adaptive(f, x, 0.0, t_end, opts);
  return x;
}

// Theorem 4, clause 1: x0 > y0 converges to (1, 0).
class Theorem4RightBasin
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(Theorem4RightBasin, ConvergesToAllX) {
  const auto [x0, y0] = GetParam();
  ASSERT_GT(x0, y0);
  const Vec limit = lv_limit(x0, y0);
  EXPECT_NEAR(limit[0], 1.0, 1e-3);
  EXPECT_NEAR(limit[1], 0.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    InitialPoints, Theorem4RightBasin,
    ::testing::Values(std::pair{0.2, 0.1}, std::pair{0.5, 0.3},
                      std::pair{0.8, 0.1}, std::pair{0.101, 0.1},
                      std::pair{0.34, 0.33}));

// Theorem 4, clause 2: x0 < y0 converges to (0, 1).
class Theorem4LeftBasin
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(Theorem4LeftBasin, ConvergesToAllY) {
  const auto [x0, y0] = GetParam();
  ASSERT_LT(x0, y0);
  const Vec limit = lv_limit(x0, y0);
  EXPECT_NEAR(limit[0], 0.0, 1e-3);
  EXPECT_NEAR(limit[1], 1.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    InitialPoints, Theorem4LeftBasin,
    ::testing::Values(std::pair{0.1, 0.2}, std::pair{0.3, 0.5},
                      std::pair{0.1, 0.8}, std::pair{0.33, 0.34}));

TEST(Theorem4Test, DiagonalFlowsToTheSaddle) {
  // Clause 3: x0 = y0 flows to (1/3, 1/3) (in infinite precision it stays
  // on the separatrix).
  const Vec limit = lv_limit(0.2, 0.2, 200.0);
  EXPECT_NEAR(limit[0], 1.0 / 3.0, 1e-2);
  EXPECT_NEAR(limit[1], 1.0 / 3.0, 1e-2);
}

TEST(Theorem4Test, LvConvergenceComplexityMatchesOde) {
  // Near (0, 1): x(t) = u0 e^{-3t}. Start at (u0, 1 - u0) and compare.
  const double u0 = 0.01;
  const auto sys = ode::catalog::lv_partitionable();
  const num::OdeFunction f = num::ode_function(sys);
  Vec x{u0, 1.0 - u0, 0.0};
  num::AdaptiveOptions opts;
  opts.abs_tol = opts.rel_tol = 1e-12;
  num::integrate_adaptive(f, x, 0.0, 2.0, opts);
  const core::LvConvergence conv{.u0 = u0, .v0 = u0, .p = 1.0};
  EXPECT_NEAR(x[0], conv.x(2.0), 0.1 * conv.x(2.0));
}

TEST(Theorem3Test, EndemicSpiralsIntoSecondEquilibrium) {
  // Figure 2's content: from several of the paper's initial points, the
  // system ends at eq. (2), and the approach oscillates (stable spiral).
  const double beta = 4.0, gamma = 1.0, alpha = 0.01;
  const auto sys = ode::catalog::endemic(beta, gamma, alpha);
  const core::EndemicEquilibrium eq =
      core::endemic_equilibrium({.beta = beta, .gamma = gamma, .alpha = alpha});

  // The paper's Figure 2 initial points (as fractions of N = 1000).
  const std::vector<Vec> starts{
      {0.999, 0.001, 0.0}, {0.0, 0.001, 0.999}, {0.0, 1.0, 0.0},
      {0.5, 0.5, 0.0},     {0.5, 0.001, 0.499}, {0.001, 0.5, 0.499},
      {0.333, 0.333, 0.334}};
  num::PhasePortraitOptions opts;
  opts.t_end = 4000.0;
  opts.observe_dt = 5.0;
  opts.integrate.dt_max = 1.0;
  const num::PhasePortrait portrait =
      num::compute_phase_portrait(sys, starts, opts);
  for (const num::Trajectory& traj : portrait.trajectories) {
    const Vec& last = traj.points.back();
    EXPECT_NEAR(last[0], eq.x, 0.02);
    EXPECT_NEAR(last[1], eq.y, 0.01);
  }

  // Oscillation: x(t) crosses its equilibrium value multiple times from the
  // first initial point (damped spiral, not a monotone node).
  const num::Trajectory& spiral = portrait.trajectories[0];
  int crossings = 0;
  for (std::size_t k = 1; k < spiral.points.size(); ++k) {
    const double prev = spiral.points[k - 1][0] - eq.x;
    const double curr = spiral.points[k][0] - eq.x;
    if (prev * curr < 0.0) ++crossings;
  }
  EXPECT_GE(crossings, 3);
}

TEST(Theorem2Test, SafetyIsOnlyProbabilistic) {
  // Theorem 2 (impossibility): crash every stasher simultaneously; the
  // object is gone and the all-receptive saddle holds from then on
  // (y = 0 is invariant).
  const auto sys = ode::catalog::endemic(4.0, 1.0, 0.01);
  const num::OdeFunction f = num::ode_function(sys);
  Vec x{0.99, 0.0, 0.01};  // no stashers anywhere
  num::integrate_fixed(f, x, 0.0, 500.0, 0.1);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  // Averse thaw back to receptive at rate alpha = 0.01: z ~ e^-5 remains.
  EXPECT_NEAR(x[0], 1.0, 1e-2);
  EXPECT_GT(x[0], 0.999);
}

TEST(EpidemicClaimTest, LogNRoundsFromTheOde) {
  // Section 1: x ~ O(1) after O(log N) rounds. In the ODE, time for x to
  // fall from 1 - 1/N to 1/N is ~ 2 ln N (logistic symmetry).
  const auto sys = ode::catalog::epidemic();
  const num::OdeFunction f = num::ode_function(sys);
  for (double n : {1e3, 1e6}) {
    Vec x{1.0 - 1.0 / n, 1.0 / n};
    const auto t = num::integrate_until(
        f, x, 0.0, 0.05, 100.0,
        [&](const Vec& state, double) { return state[0] <= 1.0 / n; });
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 2.0 * std::log(n - 1.0), 0.5);
  }
}

// Section 3, "The Effect of Failures": the endemic machine at beta = 4,
// gamma = 0.4, alpha = 0.05 and N = 10^4, with half of all connection
// attempts failing.
constexpr double kBeta = 4.0, kGamma = 0.4, kAlpha = 0.05, kLoss = 0.5;
constexpr std::size_t kLossyN = 10000;

api::ScenarioSpec lossy_endemic(bool compensate) {
  api::ScenarioSpec spec;
  spec.name = compensate ? "endemic-lossy-compensated" : "endemic-lossy";
  spec.source.catalog = "endemic";
  spec.source.params = {kBeta, kGamma, kAlpha};
  spec.runtime.message_loss = kLoss;
  if (compensate) spec.synthesis.failure_rate = kLoss;
  spec.n = kLossyN;
  spec.periods = 1500;
  spec.seed = compensate ? 6 : 5;
  spec.initial_counts = {kLossyN / 2, kLossyN / 2, 0};
  return spec;
}

/// Median stash fraction over periods [500, 1500) of a lossy_endemic run.
double median_stash_fraction(api::Experiment& experiment) {
  api::ExperimentRun run = experiment.launch();
  run.advance(experiment.spec().periods);
  const sim::WindowSummary stash =
      run.simulator().metrics().summarize_state(1, 500, 1500);
  return stash.median / static_cast<double>(kLossyN);
}

/// The linear-noise stationary stddev of the stash fraction of the
/// experiment's machine around (x, y, 1 - x - y) under message loss kLoss.
double lna_stash_stddev(api::Experiment& experiment, double x, double y) {
  const auto& machine = experiment.artifacts().synthesis.machine;
  const auto n = static_cast<double>(kLossyN);
  const core::FluctuationReport report =
      core::stationary_fluctuations(machine, {x, y, 1.0 - x - y}, n, kLoss);
  return report.count_stddev[1] / n;
}

TEST(FailureClaimTest, CompensationRestoresEquationTwo) {
  // Uncompensated, only the sampling (beta) term slows by (1 - f), so the
  // realized mean field settles at x = gamma / (beta (1 - f)) and the
  // stash fraction falls below eq. (2). Synthesizing for f multiplies the
  // sampling coin by 1 / (1 - f) and restores eq. (2).
  const double x_eq2 = kGamma / kBeta;
  const double y_eq2 = (1.0 - x_eq2) / (1.0 + kGamma / kAlpha);  // 0.1000
  const double x_lossy = kGamma / (kBeta * (1.0 - kLoss));
  const double y_lossy = (1.0 - x_lossy) / (1.0 + kGamma / kAlpha);  // 0.0889

  api::Experiment plain(lossy_endemic(false));
  api::Experiment compensated(lossy_endemic(true));
  // Each tolerance is one stationary stddev of a single period's stash
  // fraction (the LNA of core/fluctuations); a median over 1000 periods
  // sits well inside it. The two targets must be further apart than both
  // tolerances together, or the case could not tell them apart.
  const double tol_plain = lna_stash_stddev(plain, x_lossy, y_lossy);
  const double tol_compensated = lna_stash_stddev(compensated, x_eq2, y_eq2);
  ASSERT_GT(y_eq2 - y_lossy, tol_plain + tol_compensated);

  const double y_plain = median_stash_fraction(plain);
  const double y_compensated = median_stash_fraction(compensated);
  EXPECT_NEAR(y_plain, y_lossy, tol_plain);
  EXPECT_LT(y_plain, y_eq2 - tol_compensated);
  EXPECT_NEAR(y_compensated, y_eq2, tol_compensated);
}

struct TokenRun {
  double delivery = 0.0;
  std::size_t periods_to_90pct = 0;
};

/// Section 6's "Limitations of Tokenizing": the invitation system
/// (c = 0.2) at N = 5000 from 75% in x, run until 90% have converted.
TokenRun run_invitation(sim::TokenRouting routing) {
  api::ScenarioSpec spec;
  spec.name = "invitation-tokens";
  spec.source.catalog = "invitation";
  spec.source.params = {0.2};
  spec.runtime.tokens = routing;
  spec.n = 5000;
  spec.seed = 31;
  spec.initial_counts = {3750, 1250};
  api::Experiment experiment(spec);
  api::ExperimentRun run = experiment.launch();
  while (run.group().count(1) < 4500 && run.period() < 200) run.advance(1);
  const std::size_t periods = run.period();
  const sim::TokenStats tokens = run.finish().tokens;
  EXPECT_LT(periods, 200U) << "never reached 90% converted";
  EXPECT_GT(tokens.generated, 0U);
  const double delivery = static_cast<double>(tokens.delivered) /
                          static_cast<double>(tokens.generated);
  return {delivery, periods};
}

TEST(TokenClaimTest, DeliveryAndSpeedRiseWithTtl) {
  // Directory routing delivers while the target state is non-empty; a
  // TTL-bounded random walk drops tokens that meet no target in time,
  // scaling the source equations by its delivery rate.
  using Mode = sim::TokenRouting::Mode;
  EXPECT_GE(run_invitation({.mode = Mode::Directory}).delivery, 0.99);
  TokenRun shorter;
  shorter.periods_to_90pct = std::numeric_limits<std::size_t>::max();
  for (const unsigned ttl : {1U, 2U, 4U, 8U, 16U}) {
    const TokenRun walk =
        run_invitation({.mode = Mode::RandomWalkTtl, .ttl = ttl});
    EXPECT_GT(walk.delivery, shorter.delivery) << "ttl " << ttl;
    EXPECT_LE(walk.periods_to_90pct, shorter.periods_to_90pct)
        << "ttl " << ttl;
    shorter = walk;
  }
}

}  // namespace
}  // namespace deproto
