// End-to-end validation of the framework's core claim: a synthesized
// protocol run on a finite group tracks its mean field, with the
// discrepancy shrinking as the group grows (Theorem 1's infinite-group
// equivalence, approached at rate ~1/sqrt(N)).
//
// The protocol is a *discrete-time* stochastic system: its expected
// one-period update is exactly x_{k+1} = x_k + drift(x_k) (the exact_drift
// recursion, which equals the ODE only as rates -> 0). We therefore compare
// simulated population fractions against that recursion; the residual gap
// is pure finite-N fluctuation. Each case is a declarative
// api::ScenarioSpec executed through the api::Experiment facade.

#include <gtest/gtest.h>

#include <cmath>

#include "api/experiment.hpp"
#include "core/mean_field.hpp"
#include "ode/catalog.hpp"

namespace deproto {
namespace {

/// Max over periods of the infinity-norm gap between simulated fractions
/// and the exact mean-field recursion. Synchronous-update semantics make
/// the recursion exact in expectation at any rate; live semantics add an
/// O(rate^2) sequencing bias (tested separately).
double trajectory_gap(api::ScenarioSpec spec, std::size_t n,
                      const std::vector<std::size_t>& seed_counts,
                      std::size_t horizon, std::uint64_t seed,
                      bool simultaneous = true) {
  spec.runtime.simultaneous_updates = simultaneous;
  spec.n = n;
  spec.initial_counts = seed_counts;
  spec.periods = horizon;
  spec.seed = seed;

  api::Experiment experiment(std::move(spec));
  const core::ProtocolStateMachine& machine =
      experiment.artifacts().synthesis.machine;
  const api::ExperimentResult result = experiment.run();

  const std::size_t m = machine.num_states();
  num::Vec x(m, 0.0);
  for (std::size_t s = 0; s < seed_counts.size(); ++s) {
    x[s] = static_cast<double>(seed_counts[s]) / static_cast<double>(n);
  }
  double assigned = 0.0;
  for (double v : x) assigned += v;
  x[0] += 1.0 - assigned;

  double worst = 0.0;
  for (std::size_t t = 0; t < horizon; ++t) {
    const num::Vec drift = core::exact_drift(machine, x);
    for (std::size_t s = 0; s < m; ++s) x[s] += drift[s];
    for (std::size_t s = 0; s < m; ++s) {
      const double simulated =
          static_cast<double>(result.series[t].counts[s]) /
          static_cast<double>(n);
      worst = std::max(worst, std::abs(simulated - x[s]));
    }
  }
  return worst;
}

api::ScenarioSpec catalog_spec(const std::string& id,
                               std::vector<double> params = {}) {
  api::ScenarioSpec spec;
  spec.source.catalog = id;
  spec.source.params = std::move(params);
  return spec;
}

TEST(EquivalenceTest, EpidemicGapShrinksWithN) {
  const api::ScenarioSpec spec = catalog_spec("epidemic");
  double gap_small = 0.0, gap_large = 0.0;
  const int trials = 4;
  for (std::uint64_t t = 0; t < trials; ++t) {
    gap_small += trajectory_gap(spec, 400, {360, 40}, 15, 10 + t);
    gap_large += trajectory_gap(spec, 6400, {5760, 640}, 15, 20 + t);
  }
  // sqrt(6400/400) = 4: expect a clear reduction, with slack for the
  // trajectory's sensitivity to early fluctuations.
  EXPECT_LT(gap_large, gap_small / 1.5);
  EXPECT_LT(gap_large / trials, 0.02);
}

TEST(EquivalenceTest, LvGapSmallAtModerateN) {
  api::ScenarioSpec spec = catalog_spec("lv");
  spec.synthesis.p = 0.05;
  const double gap = trajectory_gap(spec, 5000, {3000, 2000, 0}, 40, 7);
  EXPECT_LT(gap, 0.03);
}

TEST(EquivalenceTest, EndemicPureMachineTracksMeanField) {
  // The pure synthesized endemic machine (p = 1/beta) away from
  // equilibrium.
  const api::ScenarioSpec spec = catalog_spec("endemic", {4.0, 1.0, 0.1});
  const double gap = trajectory_gap(spec, 8000, {7200, 800, 0}, 60, 3);
  EXPECT_LT(gap, 0.04);
}

TEST(EquivalenceTest, TokenizedMachineTracksMeanField) {
  // Theorem 5's subclass: the invitation system uses Tokenizing; the
  // directory-routed runtime must still track the mean field. Horizon kept
  // short of the x-exhaustion point where token-drop saturation kicks in.
  const api::ScenarioSpec spec = catalog_spec("invitation", {0.1});
  const double gap = trajectory_gap(spec, 4000, {3000, 1000}, 10, 11);
  EXPECT_LT(gap, 0.03);
}

TEST(EquivalenceTest, SequencingBiasIsSecondOrder) {
  // Live (Gauss-Seidel) semantics: processes observe targets' states at
  // probe time. The deviation from the simultaneous-update mean field is
  // O(rate^2) per period, so at rates <= 0.1 the live-mode gap stays near
  // the sampling-noise floor. The rate-scaled source goes in as ODE text
  // (there is no catalog id for it) -- the `deproto-run --ode` journey.
  api::ScenarioSpec spec;
  spec.source.ode_text = ode::catalog::epidemic().scaled(0.1).to_string();
  const double gap = trajectory_gap(spec, 4000, {3600, 400}, 60, 13,
                                    /*simultaneous=*/false);
  EXPECT_LT(gap, 0.03);
}

TEST(EquivalenceTest, LiveSemanticsDivergeAtRateOne) {
  // The flip side: at coin bias 1.0 (the raw epidemic), live semantics
  // compound within the period and outrun the simultaneous mean field --
  // the discretization artifact the normalizing constant p exists to tame.
  const api::ScenarioSpec spec = catalog_spec("epidemic");
  const double live = trajectory_gap(spec, 4000, {3600, 400}, 10, 17,
                                     /*simultaneous=*/false);
  const double sync = trajectory_gap(spec, 4000, {3600, 400}, 10, 17,
                                     /*simultaneous=*/true);
  EXPECT_GT(live, 3.0 * sync);
}

}  // namespace
}  // namespace deproto
