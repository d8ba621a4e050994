// The two tiers validate each other: analysis::ExactChain claims exact
// absorption probabilities and hitting times for the count-backend
// dynamics, and sim::CountSimulator can estimate the same quantities
// empirically. At N <= 64 both are cheap, so this suite pins them
// against each other within binomial/CLT statistical tolerance -- the
// ISSUE 10 acceptance criterion. A disagreement here means either the
// kernel convolution or the sampler drifted from the shared
// core::transition_channels model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "sim/count_sim.hpp"

namespace {

using deproto::analysis::CommunicatingClass;
using deproto::analysis::ExactChain;
using deproto::analysis::ExactChainOptions;
using deproto::api::ScenarioSpec;
using deproto::sim::CountSimOptions;
using deproto::sim::CountSimulator;
using deproto::sim::TokenRouting;

struct AbsorptionSample {
  std::size_t cls = 0;      // index into chain.classes()
  std::size_t periods = 0;  // first period the chain state was absorbing
};

/// Run one count-backend replicate until the count vector lands in an
/// absorbing chain state (cap: `max_periods`, fails the test if hit).
AbsorptionSample run_until_absorbed(const ScenarioSpec& spec,
                                    const ExactChain& chain,
                                    std::uint64_t seed,
                                    std::size_t max_periods) {
  const auto machine =
      deproto::core::synthesize(spec.resolve_source(), spec.synthesis)
          .machine;
  CountSimOptions options;
  options.message_loss = spec.runtime.message_loss;
  options.tokens = spec.runtime.tokens;
  CountSimulator sim(spec.n, machine, seed, options);
  sim.seed_states(spec.initial_counts);

  std::vector<std::size_t> counts(sim.num_states());
  for (std::size_t period = 0;; ++period) {
    for (std::size_t s = 0; s < counts.size(); ++s) counts[s] = sim.count(s);
    const std::size_t idx = *chain.index_of(counts);
    const CommunicatingClass& cls = chain.classes()[chain.class_of(idx)];
    if (cls.absorbing) return {chain.class_of(idx), period};
    if (period >= max_periods) {
      ADD_FAILURE() << "replicate never absorbed within " << max_periods
                    << " periods (seed " << seed << ")";
      return {chain.class_of(idx), period};
    }
    sim.run(1);
  }
}

/// P(X >= x) for X chi-square with `df` degrees of freedom: the
/// regularized upper incomplete gamma Q(df/2, x/2), by its power series
/// below a + 1 and by Lentz's continued fraction above.
double chi_square_sf(double x, double df) {
  const double a = df / 2.0;
  const double z = x / 2.0;
  if (z <= 0.0) return 1.0;
  const double prefix = std::exp(a * std::log(z) - z - std::lgamma(a));
  if (z < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (int k = 1; k < 10000 && term > sum * 1e-16; ++k) {
      term *= z / (a + k);
      sum += term;
    }
    return 1.0 - prefix * sum;
  }
  constexpr double kTiny = 1e-300;
  double b = z + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 10000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-16) break;
  }
  return prefix * h;
}

/// G-test p-value of one-period CountSimulator outcomes from `start`
/// (seeds 1..replicates) against the ExactChain row of that start. Bins
/// with expected count < 5 are pooled into one (folded into the smallest
/// bin when the pool itself stays under 5). A sampled outcome outside the
/// row's support fails the test outright.
double one_period_g_test_p(const deproto::core::ProtocolStateMachine& machine,
                           const ExactChainOptions& options,
                           const std::vector<std::size_t>& start,
                           std::uint64_t replicates) {
  const ExactChain chain(machine, options);
  const auto& row = chain.row(chain.seeded_index(start));
  std::vector<double> observed(row.size(), 0.0);
  const CountSimOptions sim_options{.message_loss = options.message_loss,
                                    .tokens = options.tokens};
  std::vector<std::size_t> counts(machine.num_states());
  for (std::uint64_t seed = 1; seed <= replicates; ++seed) {
    CountSimulator sim(options.n, machine, seed, sim_options);
    sim.seed_states(start);
    sim.run(1);
    for (std::size_t s = 0; s < counts.size(); ++s) counts[s] = sim.count(s);
    const std::size_t col = *chain.index_of(counts);
    const auto it = std::find_if(row.begin(), row.end(), [&](const auto& e) {
      return e.first == col;
    });
    if (it == row.end()) {
      ADD_FAILURE() << "seed " << seed
                    << " sampled an outcome the exact row excludes";
      return 0.0;
    }
    observed[static_cast<std::size_t>(it - row.begin())] += 1.0;
  }

  const auto r = static_cast<double>(replicates);
  std::vector<std::pair<double, double>> bins;  // (observed, expected)
  std::pair<double, double> pool{0.0, 0.0};
  for (std::size_t i = 0; i < row.size(); ++i) {
    const double expected = row[i].second * r;
    if (expected < 5.0) {
      pool.first += observed[i];
      pool.second += expected;
    } else {
      bins.emplace_back(observed[i], expected);
    }
  }
  if (pool.second >= 5.0) {
    bins.push_back(pool);
  } else if (pool.second > 0.0) {
    auto& smallest = *std::min_element(
        bins.begin(), bins.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    smallest.first += pool.first;
    smallest.second += pool.second;
  }
  EXPECT_GE(bins.size(), 3U) << "the row should spread over several bins";
  double g = 0.0;
  for (const auto& [o, e] : bins) {
    if (o > 0.0) g += 2.0 * o * std::log(o / e);
  }
  return chi_square_sf(g, static_cast<double>(bins.size() - 1));
}

TEST(ExactPinningTest, LvSplitAbsorptionMatchesCountBackend) {
  // lv-majority at N = 24 with a 14/10 seed absorbs into the all-x or
  // all-y corner with a genuinely split probability -- the sharpest
  // cross-check available: a biased kernel would shift the split.
  ScenarioSpec spec =
      deproto::api::registry_get("lv-majority").scaled_to(24);
  const auto machine =
      deproto::core::synthesize(spec.resolve_source(), spec.synthesis)
          .machine;
  ExactChainOptions options;
  options.n = spec.n;
  options.message_loss = spec.runtime.message_loss;
  options.tokens = spec.runtime.tokens;
  const ExactChain chain(machine, options);

  const std::size_t start = chain.seeded_index(spec.initial_counts);
  const std::vector<double> exact = chain.absorption_probabilities(start);

  // Identify the all-x corner's class.
  std::vector<std::size_t> corner(machine.num_states(), 0);
  corner[0] = spec.n;
  const std::size_t all_x = chain.class_of(*chain.index_of(corner));
  const double p_exact = exact[all_x];
  ASSERT_GT(p_exact, 0.05) << "seed choice should leave a real split";
  ASSERT_LT(p_exact, 0.95) << "seed choice should leave a real split";

  const std::size_t replicates = 1500;
  std::size_t hits = 0;
  for (std::size_t r = 0; r < replicates; ++r) {
    const AbsorptionSample sample =
        run_until_absorbed(spec, chain, 0x51C0FFEEu + r, 20000);
    if (sample.cls == all_x) ++hits;
  }
  const double p_hat =
      static_cast<double>(hits) / static_cast<double>(replicates);
  const double sigma =
      std::sqrt(p_exact * (1.0 - p_exact) / static_cast<double>(replicates));
  EXPECT_NEAR(p_hat, p_exact, 4.5 * sigma)
      << "empirical " << p_hat << " vs exact " << p_exact << " (sigma "
      << sigma << ")";
}

TEST(ExactPinningTest, EpidemicHittingTimeMatchesCountBackend) {
  // Epidemic at N = 16 absorbs into all-y with probability 1; the exact
  // expected hitting time must match the empirical mean periods to
  // absorption within CLT tolerance.
  ScenarioSpec spec = deproto::api::registry_get("epidemic").scaled_to(16);
  const auto machine =
      deproto::core::synthesize(spec.resolve_source(), spec.synthesis)
          .machine;
  ExactChainOptions options;
  options.n = spec.n;
  options.message_loss = spec.runtime.message_loss;
  const ExactChain chain(machine, options);

  const std::size_t start = chain.seeded_index(spec.initial_counts);
  const double t_exact = chain.expected_absorption_time(start);
  ASSERT_GT(t_exact, 1.0);

  std::vector<std::size_t> all_y(machine.num_states(), 0);
  all_y[1] = spec.n;
  const std::size_t target = chain.class_of(*chain.index_of(all_y));
  const std::vector<double> exact = chain.absorption_probabilities(start);
  EXPECT_NEAR(exact[target], 1.0, 1e-9);

  const std::size_t replicates = 800;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r = 0; r < replicates; ++r) {
    const AbsorptionSample sample =
        run_until_absorbed(spec, chain, 0xE51Du + 7919u * r, 20000);
    EXPECT_EQ(sample.cls, target) << "epidemic must absorb into all-y";
    const double t = static_cast<double>(sample.periods);
    sum += t;
    sum_sq += t * t;
  }
  const double mean = sum / static_cast<double>(replicates);
  const double var =
      sum_sq / static_cast<double>(replicates) - mean * mean;
  const double sigma_mean =
      std::sqrt(var / static_cast<double>(replicates));
  EXPECT_NEAR(mean, t_exact, 5.0 * sigma_mean)
      << "empirical " << mean << " vs exact " << t_exact << " (sigma "
      << sigma_mean << ")";
}

TEST(ExactPinningTest, TtlTokenPeriodMatchesExactRow) {
  // The invitation system synthesizes a Tokenizing action; under
  // RandomWalkTtl each token batch is a binomial delivery draw clamped to
  // the stayers of the token state, a path no registry scenario takes.
  // 20000 sampled periods per start must fit the exact row (G-test). From
  // {8, 4} at most 4 tokens chase 8 stayers, so the clamp never binds;
  // from {2, 10} up to 10 chase 2, and the exact row merges the draws
  // past the cap into the cap outcome.
  const auto machine =
      deproto::core::synthesize(deproto::ode::catalog::invitation(0.2))
          .machine;
  ASSERT_TRUE(std::any_of(
      machine.actions().begin(), machine.actions().end(), [](const auto& a) {
        return std::holds_alternative<deproto::core::TokenizingAction>(a);
      }));
  ExactChainOptions options;
  options.n = 12;
  options.message_loss = 0.1;
  options.tokens = {.mode = TokenRouting::Mode::RandomWalkTtl, .ttl = 2};
  for (const std::vector<std::size_t>& start :
       {std::vector<std::size_t>{8, 4}, std::vector<std::size_t>{2, 10}}) {
    const double p = one_period_g_test_p(machine, options, start, 20000);
    EXPECT_GE(p, 1e-6) << "G-test p-value " << p << " from {" << start[0]
                       << ", " << start[1] << "}";
  }
}

/// States {x, w, y, z}. Each period a w member hands x a token (x -> y)
/// and pushes one contact at x (x -> z), both with certainty at N = 2.
/// From {1, 1, 0, 0} the two batches compete for the single x stayer, so
/// the settlement order of sim::CountPeriod decides the outcome: tokens
/// settle first, so x ends in y and the push finds no stayer left.
deproto::core::ProtocolStateMachine token_push_contention() {
  deproto::core::ProtocolStateMachine machine({"x", "w", "y", "z"});
  deproto::core::TokenizingAction token;
  token.executor_state = 1;
  token.token_state = 0;
  token.to_state = 2;
  token.coin_bias = 1.0;
  token.rate_constant = 1.0;
  machine.add_action(token);
  deproto::core::PushAction push;
  push.executor_state = 1;
  push.target_state = 0;
  push.to_state = 3;
  push.fanout = 1;
  push.coin_bias = 1.0;
  machine.add_action(push);
  return machine;
}

TEST(ExactPinningTest, TokensSettleBeforePushesOnTheCountBackend) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CountSimulator sim(2, token_push_contention(), seed);
    sim.seed_states({1, 1, 0, 0});
    sim.run(1);
    EXPECT_EQ(sim.count(0), 0U) << "seed " << seed;
    EXPECT_EQ(sim.count(1), 1U) << "seed " << seed;
    EXPECT_EQ(sim.count(2), 1U) << "token delivered, seed " << seed;
    EXPECT_EQ(sim.count(3), 0U) << "push found no stayer, seed " << seed;
  }
}

TEST(ExactPinningTest, TokensSettleBeforePushesInTheExactRow) {
  ExactChainOptions options;
  options.n = 2;
  const ExactChain chain(token_push_contention(), options);
  const auto& row = chain.row(*chain.index_of({1, 1, 0, 0}));
  ASSERT_EQ(row.size(), 1U);
  EXPECT_EQ(row[0].first, *chain.index_of({0, 1, 1, 0}));
  EXPECT_DOUBLE_EQ(row[0].second, 1.0);
}

}  // namespace
