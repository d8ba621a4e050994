// The two tiers validate each other: analysis::ExactChain claims exact
// absorption probabilities and hitting times for the count-backend
// dynamics, and sim::CountSimulator can estimate the same quantities
// empirically. At N <= 64 both are cheap, so this suite pins them
// against each other within binomial/CLT statistical tolerance -- the
// ISSUE 10 acceptance criterion. A disagreement here means either the
// kernel convolution or the sampler drifted from the shared
// core::transition_channels model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "core/synthesis.hpp"
#include "sim/count_sim.hpp"

namespace {

using deproto::analysis::CommunicatingClass;
using deproto::analysis::ExactChain;
using deproto::analysis::ExactChainOptions;
using deproto::api::ScenarioSpec;
using deproto::sim::CountSimOptions;
using deproto::sim::CountSimulator;

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

}  // namespace
