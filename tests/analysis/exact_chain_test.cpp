// The exact finite-N model checker: lattice enumeration and budgets, the
// row-stochastic kernel invariant, communicating-class structure, the
// closed-form chains (independent flips, geometric hitting times), the
// exact.* rule family, and the RuntimeOptions::verify_exact pre-flight.

#include "analysis/exact_chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact_checks.hpp"
#include "analysis/verifier.hpp"
#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "core/synthesis.hpp"

namespace {

using deproto::analysis::CommunicatingClass;
using deproto::analysis::ExactChain;
using deproto::analysis::ExactChainBudgetError;
using deproto::analysis::ExactChainKernelError;
using deproto::analysis::ExactChainOptions;
using deproto::analysis::ExactChainSolveError;
using deproto::analysis::ExactCheckOptions;
using deproto::analysis::Finding;
using deproto::analysis::Severity;
using deproto::core::ProtocolStateMachine;

/// x <-> y with independent per-period coin flips: every process is its
/// own two-state chain, so the stationary count of y is Binomial(n, pi)
/// with pi = a / (a + b) -- an exact closed form to pin the solvers on.
ProtocolStateMachine two_way_flip(double a, double b) {
  ProtocolStateMachine machine({"x", "y"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  flip.to_state = 1;
  flip.coin_bias = a;
  flip.rate_constant = a;
  machine.add_action(flip);
  flip.from_state = 1;
  flip.to_state = 0;
  flip.coin_bias = b;
  flip.rate_constant = b;
  machine.add_action(flip);
  return machine;
}

/// `states` states and no action: every count vector is absorbing, so
/// the chain is the bare lattice.
ProtocolStateMachine inert(std::size_t states) {
  std::vector<std::string> names;
  for (std::size_t s = 0; s < states; ++s) {
    names.push_back("s" + std::to_string(s));
  }
  return ProtocolStateMachine(names);
}

/// One process, A -> B (bias 1), then B -> C (bias 1e-6) before B -> A
/// (bias 1): C absorbs, but Gauss-Seidel over {A, B} contracts by only
/// 1 - 1e-6 per sweep, ~1e7 sweeps to meet the tolerances -- far past the
/// cap.
ProtocolStateMachine slow_leak() {
  ProtocolStateMachine machine({"a", "b", "c"});
  deproto::core::FlippingAction flip;
  const auto add = [&](std::size_t from, std::size_t to, double bias) {
    flip.from_state = from;
    flip.to_state = to;
    flip.coin_bias = bias;
    flip.rate_constant = bias;
    machine.add_action(flip);
  };
  add(0, 1, 1.0);
  add(1, 2, 1e-6);
  add(1, 0, 1.0);
  return machine;
}

ProtocolStateMachine synthesized(const std::string& scenario) {
  const deproto::api::ScenarioSpec spec =
      deproto::api::registry_get(scenario);
  return deproto::core::synthesize(spec.resolve_source(), spec.synthesis)
      .machine;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule,
              Severity severity) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.severity == severity) return true;
  }
  return false;
}

const Finding* find_rule(const std::vector<Finding>& findings,
                         const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

// ------------------------------------------------------- lattice + budgets

TEST(ExactChainTest, StateSpaceSizeMatchesBinomialFormula) {
  EXPECT_EQ(ExactChain::state_space_size(1, 7), 1u);   // C(7, 0)
  EXPECT_EQ(ExactChain::state_space_size(2, 8), 9u);   // C(9, 1)
  EXPECT_EQ(ExactChain::state_space_size(3, 4), 15u);  // C(6, 2)
  EXPECT_EQ(ExactChain::state_space_size(3, 16), 153u);
  EXPECT_EQ(ExactChain::state_space_size(0, 5), 0u);
}

TEST(ExactChainTest, StateSpaceSizeSaturatesInsteadOfOverflowing) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(ExactChain::state_space_size(20, 1000000000), kMax);
  // n + k itself would wrap: these used to come back 0 and pass any
  // state budget.
  EXPECT_EQ(ExactChain::state_space_size(2, kMax), kMax);
  EXPECT_EQ(ExactChain::state_space_size(3, kMax - 1), kMax);
}

TEST(ExactChainTest, EnumerationCoversTheLatticeSortedAndInvertible) {
  ExactChainOptions options;
  options.n = 5;
  const ExactChain chain(two_way_flip(0.3, 0.1), options);
  ASSERT_EQ(chain.num_chain_states(), 6u);
  for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
    const std::vector<std::size_t>& counts = chain.state(i);
    EXPECT_EQ(counts[0] + counts[1], 5u);
    EXPECT_EQ(chain.index_of(counts), i);
  }
  EXPECT_FALSE(chain.index_of({4, 4}).has_value()) << "does not sum to n";
}

TEST(ExactChainTest, RankRoundTripsOverTheLattice) {
  // index_of is the lexicographic rank computed from the composition
  // table, not a search: it must invert state() on every lattice point.
  for (std::size_t states = 2; states <= 5; ++states) {
    for (const std::size_t n : {1u, 7u, 18u}) {
      ExactChainOptions options;
      options.n = n;
      const ExactChain chain(inert(states), options);
      ASSERT_EQ(chain.num_chain_states(),
                ExactChain::state_space_size(states, n));
      for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
        ASSERT_EQ(chain.index_of(chain.state(i)), i)
            << "S=" << states << " n=" << n << " i=" << i;
        if (i > 0) {
          ASSERT_LT(chain.state(i - 1), chain.state(i));
        }
      }
    }
  }
}

TEST(ExactChainTest, IndexOfRejectsCountsOffTheLattice) {
  ExactChainOptions options;
  options.n = 7;
  const ExactChain chain(inert(3), options);
  EXPECT_FALSE(chain.index_of({2, 2, 2}).has_value()) << "sums to 6";
  EXPECT_FALSE(chain.index_of({2, 2, 4}).has_value()) << "sums to 8";
  EXPECT_FALSE(chain.index_of({8, 0, 0}).has_value()) << "entry above n";
  EXPECT_FALSE(chain.index_of({7, 0}).has_value()) << "too few states";
  EXPECT_FALSE(chain.index_of({7, 0, 0, 0}).has_value()) << "too many";
  // Entries whose sum wraps around to n are still off the lattice.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_FALSE(chain.index_of({8, kMax, 0}).has_value());
  EXPECT_EQ(chain.index_of({7, 0, 0}), chain.num_chain_states() - 1);
  EXPECT_EQ(chain.index_of({0, 0, 7}), 0u);
}

TEST(ExactChainTest, SeededIndexPadsTheRemainderIntoStateZero) {
  ExactChainOptions options;
  options.n = 8;
  const ExactChain chain(two_way_flip(0.3, 0.1), options);
  const std::size_t idx = chain.seeded_index({0, 3});
  EXPECT_EQ(chain.state(idx), (std::vector<std::size_t>{5, 3}));
  EXPECT_THROW((void)chain.seeded_index({9, 3}), std::invalid_argument);
}

TEST(ExactChainTest, LatticeBudgetThrowsBudgetError) {
  ExactChainOptions options;
  options.n = 32;
  options.max_states = 10;
  EXPECT_THROW(ExactChain(two_way_flip(0.3, 0.1), options),
               ExactChainBudgetError);
}

TEST(ExactChainTest, RowBranchBudgetThrowsBudgetError) {
  ExactChainOptions options;
  options.n = 16;
  options.max_row_branches = 4;
  EXPECT_THROW(ExactChain(synthesized("lv-majority"), options),
               ExactChainBudgetError);
}

// --------------------------------------------------- kernel stochasticity

TEST(ExactChainTest, FoldKernelRowSortsAndMergesDuplicateColumns) {
  std::vector<std::pair<std::uint32_t, double>> row = {
      {4, 0.25}, {1, 0.125}, {4, 0.5}, {0, 0.125}};
  deproto::analysis::fold_kernel_row(row, {2, 1});
  const std::vector<std::pair<std::uint32_t, double>> folded = {
      {0, 0.125}, {1, 0.125}, {4, 0.75}};
  EXPECT_EQ(row, folded);
}

TEST(ExactChainTest, FoldKernelRowRejectsARowThatDoesNotSumToOne) {
  // 0.5 + 0.25 short by a quarter, and a row 1e-11 over: both past the
  // 1e-12 bound. The error names the count vector the row leaves from.
  std::vector<std::pair<std::uint32_t, double>> short_row = {{0, 0.5},
                                                             {0, 0.25}};
  try {
    deproto::analysis::fold_kernel_row(short_row, {2, 0});
    FAIL() << "expected ExactChainKernelError";
  } catch (const ExactChainKernelError& e) {
    EXPECT_NE(std::string(e.what()).find("(2, 0)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("0.75"), std::string::npos)
        << e.what();
  }
  std::vector<std::pair<std::uint32_t, double>> over_row = {{0, 0.5},
                                                            {3, 0.5 + 1e-11}};
  EXPECT_THROW(deproto::analysis::fold_kernel_row(over_row, {1, 1}),
               ExactChainKernelError);
  std::vector<std::pair<std::uint32_t, double>> exact_row = {{0, 0.5},
                                                             {3, 0.5}};
  EXPECT_NO_THROW(deproto::analysis::fold_kernel_row(exact_row, {1, 1}));
}

TEST(ExactChainTest, EpidemicKernelRowsAreStochastic) {
  ExactChainOptions options;
  options.n = 8;
  const ExactChain chain(synthesized("epidemic"), options);
  for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
    double total = 0.0;
    for (const auto& [col, prob] : chain.row(i)) {
      EXPECT_LT(col, chain.num_chain_states());
      EXPECT_GT(prob, 0.0);
      total += prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "row " << i;
  }
}

TEST(ExactChainTest, LvKernelRowsAreStochastic) {
  ExactChainOptions options;
  options.n = 6;
  const ExactChain chain(synthesized("lv-majority"), options);
  for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
    double total = 0.0;
    for (const auto& [col, prob] : chain.row(i)) total += prob;
    EXPECT_NEAR(total, 1.0, 1e-9) << "row " << i;
  }
}

TEST(ExactChainTest, EndemicPushKernelRowsAreStochastic) {
  ExactChainOptions options;
  options.n = 6;
  options.message_loss = 0.1;
  const ExactChain chain(synthesized("endemic"), options);
  for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
    double total = 0.0;
    for (const auto& [col, prob] : chain.row(i)) total += prob;
    EXPECT_NEAR(total, 1.0, 1e-9) << "row " << i;
  }
}

TEST(ExactChainTest, DeterministicBiasOneMovesEveryProcess) {
  // coin_bias = 1 exercises the p >= 1 clamp of Rng::binomial: the kernel
  // must be deterministic, exactly like the sampler.
  ProtocolStateMachine machine({"x", "y"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  flip.to_state = 1;
  flip.coin_bias = 1.0;
  flip.rate_constant = 1.0;
  machine.add_action(flip);
  ExactChainOptions options;
  options.n = 4;
  const ExactChain chain(machine, options);
  const std::size_t start = *chain.index_of({4, 0});
  const auto& row = chain.row(start);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].first, *chain.index_of({0, 4}));
  EXPECT_DOUBLE_EQ(row[0].second, 1.0);
}

// ------------------------------------------------- classes + closed forms

TEST(ExactChainTest, EpidemicClassesAreTheTwoCornersPlusTransients) {
  ExactChainOptions options;
  options.n = 8;
  const ExactChain chain(synthesized("epidemic"), options);
  std::size_t absorbing = 0;
  for (const CommunicatingClass& cls : chain.classes()) {
    if (cls.absorbing) {
      ++absorbing;
      const std::vector<std::size_t>& c = chain.state(cls.members.front());
      EXPECT_TRUE(c[0] == 8 || c[1] == 8) << "absorbing off-corner";
    } else {
      EXPECT_FALSE(cls.recurrent)
          << "epidemic has no non-absorbing recurrent class";
    }
  }
  EXPECT_EQ(absorbing, 2u);

  // Seeded one infected: all-y is certain, all-x unreachable.
  const std::size_t start = *chain.index_of({7, 1});
  const std::vector<double> absorb = chain.absorption_probabilities(start);
  const std::size_t all_y = chain.class_of(*chain.index_of({0, 8}));
  const std::size_t all_x = chain.class_of(*chain.index_of({8, 0}));
  EXPECT_NEAR(absorb[all_y], 1.0, 1e-9);
  EXPECT_NEAR(absorb[all_x], 0.0, 1e-9);
}

TEST(ExactChainTest, GeometricHittingTimeIsOneOverP) {
  // One process, one one-way flip: absorption is a geometric waiting time
  // with mean 1/p.
  ProtocolStateMachine machine({"x", "y"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  flip.to_state = 1;
  flip.coin_bias = 0.25;
  flip.rate_constant = 0.25;
  machine.add_action(flip);
  ExactChainOptions options;
  options.n = 1;
  const ExactChain chain(machine, options);
  const std::size_t start = *chain.index_of({1, 0});
  EXPECT_NEAR(chain.expected_absorption_time(start), 4.0, 1e-8);
  EXPECT_DOUBLE_EQ(
      chain.expected_absorption_time(*chain.index_of({0, 1})), 0.0);
}

TEST(ExactChainTest, IndependentFlipsHaveBinomialStationaryLaw) {
  const double a = 0.3;
  const double b = 0.1;
  const std::size_t n = 10;
  ExactChainOptions options;
  options.n = n;
  const ExactChain chain(two_way_flip(a, b), options);

  // Everything communicates: one recurrent class covering the lattice.
  ASSERT_EQ(chain.classes().size(), 1u);
  EXPECT_TRUE(chain.classes()[0].recurrent);
  EXPECT_FALSE(chain.classes()[0].absorbing);

  const std::vector<double> dist = chain.stationary_distribution();
  const double pi = a / (a + b);
  // Stationary law of the y-count is Binomial(n, pi): check mean and
  // stddev against the closed form.
  const deproto::num::Vec mean = chain.mean_fractions(dist);
  EXPECT_NEAR(mean[1], pi, 1e-8);
  EXPECT_NEAR(mean[0], 1.0 - pi, 1e-8);
  const deproto::num::Vec stddev = chain.count_stddev(dist);
  const double expected =
      std::sqrt(static_cast<double>(n) * pi * (1.0 - pi));
  EXPECT_NEAR(stddev[1], expected, 1e-6);
  EXPECT_NEAR(stddev[0], expected, 1e-6);

  // And the full pmf, not just two moments.
  for (std::size_t y = 0; y <= n; ++y) {
    double pmf = 1.0;
    for (std::size_t k = 0; k < y; ++k) {
      pmf *= pi * static_cast<double>(n - k) / static_cast<double>(k + 1);
    }
    for (std::size_t k = 0; k < n - y; ++k) pmf *= 1.0 - pi;
    EXPECT_NEAR(dist[*chain.index_of({n - y, y})], pmf, 1e-8) << "y=" << y;
  }
}

TEST(ExactChainTest, PeriodicDeterministicChainStillFindsUniformStationary) {
  // Both biases 1 and a single process: the two lattice points swap every
  // period (one recurrent class of period 2). The damped power iteration
  // must still land on the 50/50 stationary distribution instead of
  // oscillating. (At n > 1 the deterministic swap splits the lattice into
  // disjoint 2-cycles {(a,b),(b,a)} -- multiple recurrent classes -- which
  // StationaryDistributionThrowsWithTwoRecurrentClasses already covers.)
  ExactChainOptions options;
  options.n = 1;
  const ExactChain chain(two_way_flip(1.0, 1.0), options);
  ASSERT_EQ(chain.recurrent_classes().size(), 1u);
  const std::vector<double> dist = chain.stationary_distribution();
  EXPECT_NEAR(dist[*chain.index_of({1, 0})], 0.5, 1e-6);
  EXPECT_NEAR(dist[*chain.index_of({0, 1})], 0.5, 1e-6);
}

TEST(ExactChainTest, StationaryDistributionThrowsWithTwoRecurrentClasses) {
  ExactChainOptions options;
  options.n = 6;
  const ExactChain chain(synthesized("epidemic"), options);
  EXPECT_THROW((void)chain.stationary_distribution(), std::logic_error);
}

TEST(ExactChainTest, AbsorptionIntoManyClassesIsMultinomial) {
  // s0 leaves for s1..s4 with probability 1/4 each (biases 1/4, 1/3, 1/2,
  // 1 in firing order) and s1..s4 are absorbing. At n = 2 that is ten
  // recurrent classes, past the solver's fixed widths, and the absorption
  // law is Multinomial(2; 1/4, 1/4, 1/4, 1/4).
  ProtocolStateMachine machine({"s0", "s1", "s2", "s3", "s4"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  const double biases[] = {0.25, 1.0 / 3.0, 0.5, 1.0};
  for (std::size_t to = 1; to <= 4; ++to) {
    flip.to_state = to;
    flip.coin_bias = biases[to - 1];
    flip.rate_constant = biases[to - 1];
    machine.add_action(flip);
  }
  ExactChainOptions options;
  options.n = 2;
  const ExactChain chain(machine, options);
  ASSERT_EQ(chain.recurrent_classes().size(), 10u);
  const std::size_t start = *chain.index_of({2, 0, 0, 0, 0});
  const std::vector<double> absorb = chain.absorption_probabilities(start);
  const auto absorbed = [&](std::vector<std::size_t> counts) {
    return absorb[chain.class_of(*chain.index_of(counts))];
  };
  EXPECT_NEAR(absorbed({0, 2, 0, 0, 0}), 1.0 / 16.0, 1e-12);
  EXPECT_NEAR(absorbed({0, 0, 0, 0, 2}), 1.0 / 16.0, 1e-12);
  EXPECT_NEAR(absorbed({0, 1, 1, 0, 0}), 2.0 / 16.0, 1e-12);
  EXPECT_NEAR(absorbed({0, 0, 1, 0, 1}), 2.0 / 16.0, 1e-12);
  double total = 0.0;
  for (const double p : absorb) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(chain.expected_absorption_time(start), 1.0, 1e-12);
}

TEST(ExactChainTest, CappedSolvesThrowInsteadOfReturningTheIterate) {
  ExactChainOptions options;
  options.n = 1;
  const ExactChain chain(slow_leak(), options);
  const std::size_t start = *chain.index_of({1, 0, 0});
  ASSERT_FALSE(chain.classes()[chain.class_of(start)].recurrent);
  EXPECT_THROW((void)chain.absorption_probabilities(start),
               ExactChainSolveError);
  EXPECT_THROW((void)chain.expected_absorption_time(start),
               ExactChainSolveError);
}

TEST(ExactChainTest, CappedStationaryIterationThrowsSolveError) {
  // Flip rates 1e-6 / 2e-6: the damped power iteration contracts by
  // 1 - 1.5e-6 per step, ~1e7 steps to 1e-13 -- past the 500000 cap.
  ExactChainOptions options;
  options.n = 1;
  const ExactChain chain(two_way_flip(1e-6, 2e-6), options);
  ASSERT_EQ(chain.recurrent_classes().size(), 1u);
  EXPECT_THROW((void)chain.stationary_distribution(), ExactChainSolveError);
}

// ------------------------------------------------------------ exact.* rules

TEST(ExactChecksTest, CappedSolveBecomesAnErrorFindingNotANumber) {
  ExactCheckOptions options;
  options.n = 1;
  const auto absorbing =
      deproto::analysis::check_exact(slow_leak(), {1, 0, 0}, options);
  const Finding* failed = find_rule(absorbing, "exact.solve-failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->severity, Severity::Error);
  EXPECT_NE(failed->message.find("absorption solve did not converge to "
                                 "1e-12 within 200000 Gauss-Seidel sweeps"),
            std::string::npos)
      << failed->message;
  EXPECT_EQ(find_rule(absorbing, "exact.absorbing-class"), nullptr);
  EXPECT_EQ(find_rule(absorbing, "exact.hitting-time"), nullptr);

  const auto ergodic =
      deproto::analysis::check_exact(two_way_flip(1e-6, 2e-6), {1}, options);
  EXPECT_TRUE(has_rule(ergodic, "exact.solve-failed", Severity::Error));
  EXPECT_EQ(find_rule(ergodic, "exact.meanfield-divergence"), nullptr);
  EXPECT_EQ(find_rule(ergodic, "exact.fluctuation-mismatch"), nullptr);
}

TEST(ExactChecksTest, EpidemicFindingsReportCertainAbsorption) {
  ExactCheckOptions options;
  options.n = 16;
  const auto findings = deproto::analysis::check_exact(
      synthesized("epidemic"), {15, 1}, options);
  EXPECT_TRUE(
      has_rule(findings, "exact.absorbing-class", Severity::Info));
  const Finding* hitting = find_rule(findings, "exact.hitting-time");
  ASSERT_NE(hitting, nullptr);
  EXPECT_GT(hitting->value, 1.0);
  EXPECT_LT(hitting->value, 50.0);
  // The all-y corner IS the stable mean-field fixed point: no trap.
  EXPECT_FALSE(has_rule(findings, "exact.transient-trap", Severity::Warning));
}

TEST(ExactChecksTest, EndemicAtSmallNIsAFiniteNTrap) {
  // The mean field promises an endemic equilibrium; the exact chain
  // proves extinction absorbs the whole population at n = 16. This is
  // the Bournez et al. finite-N gap made visible statically.
  ExactCheckOptions options;
  options.n = 16;
  const auto findings = deproto::analysis::check_exact(
      synthesized("endemic"), {1, 3, 12}, options);
  EXPECT_TRUE(has_rule(findings, "exact.transient-trap", Severity::Warning));
  EXPECT_TRUE(
      has_rule(findings, "exact.meanfield-divergence", Severity::Warning));
}

TEST(ExactChecksTest, IndependentFlipsMatchMeanFieldAndClt) {
  // Non-interacting flips have the exact stationary law Binomial(n, pi):
  // the mean matches the mean field exactly, and in the small-rate regime
  // (where the Poisson-jump diffusion matrix B approximates the binomial
  // per-period noise well) the linear-noise stddev is within ~1%, so both
  // comparisons come back as small-valued infos. (At large per-period
  // rates the checker correctly reports the LNA's own approximation
  // error -- e.g. ~10% at biases 0.3/0.1 -- still far below the 0.5
  // warning tolerance.)
  ExactCheckOptions options;
  options.n = 12;
  const auto findings = deproto::analysis::check_exact(
      two_way_flip(0.03, 0.01), {6, 6}, options);
  const Finding* divergence = find_rule(findings, "exact.meanfield-divergence");
  ASSERT_NE(divergence, nullptr);
  EXPECT_EQ(divergence->severity, Severity::Info);
  EXPECT_LT(divergence->value, 1e-6);
  const Finding* fluct = find_rule(findings, "exact.fluctuation-mismatch");
  ASSERT_NE(fluct, nullptr);
  EXPECT_EQ(fluct->severity, Severity::Info);
  EXPECT_LT(fluct->value, 0.05);
}

TEST(ExactChecksTest, BudgetOverrunBecomesAFindingNotAnException) {
  ExactCheckOptions options;
  options.n = 64;
  options.max_states = 100;
  const auto findings = deproto::analysis::check_exact(
      synthesized("lv-majority"), {38, 26, 0}, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "exact.state-budget");
  EXPECT_EQ(findings[0].severity, Severity::Info);
}

TEST(ExactChecksTest, RowBudgetOverrunBecomesAFindingNotAnException) {
  ExactCheckOptions options;
  options.n = 16;
  options.max_row_branches = 4;
  const auto findings = deproto::analysis::check_exact(
      synthesized("lv-majority"), {10, 6, 0}, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "exact.state-budget");
}

// ------------------------------------------- analyze_spec + the pre-flight

TEST(ExactVerifyTest, AnalyzeSpecAppendsExactFindingsOnlyWhenOptedIn) {
  const deproto::api::ScenarioSpec spec =
      deproto::api::registry_get("lv-majority");
  deproto::analysis::VerifyOptions options;
  const deproto::analysis::Report off =
      deproto::analysis::analyze_spec(spec, options);
  EXPECT_EQ(find_rule(off.findings, "exact.absorbing-class"), nullptr);

  options.exact = true;
  options.exact_chain.n = 16;
  const deproto::analysis::Report on =
      deproto::analysis::analyze_spec(spec, options);
  const Finding* cls = find_rule(on.findings, "exact.absorbing-class");
  ASSERT_NE(cls, nullptr);
  EXPECT_TRUE(has_rule(on.findings, "exact.hitting-time", Severity::Info));
}

TEST(ExactVerifyTest, VerifyExactSerializesOnlyWhenEnabled) {
  deproto::api::ScenarioSpec spec = deproto::api::registry_get("epidemic");
  const std::string before = spec.to_json().dump();
  EXPECT_EQ(before.find("verify_exact"), std::string::npos)
      << "cache keys of pre-existing specs must stay byte-stable";
  spec.runtime.verify_exact = true;
  const deproto::api::ScenarioSpec back =
      deproto::api::ScenarioSpec::from_json(spec.to_json());
  EXPECT_TRUE(back.runtime.verify_exact);
}

TEST(ExactVerifyTest, PreFlightBlocksTheEndemicTrapAndPassesEpidemic) {
  deproto::api::ScenarioSpec endemic =
      deproto::api::registry_get("endemic").scaled_to(64);
  endemic.periods = 3;
  endemic.runtime.verify_exact = true;
  deproto::api::Experiment trapped(endemic);
  try {
    (void)trapped.launch();
    FAIL() << "expected the exact pre-flight to refuse the endemic trap";
  } catch (const deproto::api::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("exact.transient-trap"),
              std::string::npos)
        << e.what();
  }

  deproto::api::ScenarioSpec epidemic =
      deproto::api::registry_get("epidemic").scaled_to(64);
  epidemic.periods = 3;
  epidemic.runtime.verify_exact = true;
  deproto::api::Experiment clean(epidemic);
  EXPECT_NO_THROW((void)clean.launch());
}

}  // namespace
