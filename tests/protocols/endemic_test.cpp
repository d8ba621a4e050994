// Case Study I (Section 4.1): the endemic protocol of Figure 1, run as the
// machine synthesized from eq. (1) with the beta*x*y term implemented as
// push + pull (b = beta/2 contacts each way). States: receptive (x),
// stash (y), averse (z).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "api/experiment.hpp"
#include "core/closed_form.hpp"
#include "core/synthesis.hpp"

namespace deproto {
namespace {

constexpr std::size_t kReceptive = 0;
constexpr std::size_t kStash = 1;
constexpr std::size_t kAverse = 2;

/// Eq. (1) at `rates` on n hosts; `push_pull` selects the Figure 1 machine
/// over the pure mapping (pull only, p = 1/beta).
api::ScenarioSpec endemic_spec(const core::EndemicRates& rates,
                               std::size_t n, std::uint64_t seed,
                               std::vector<std::size_t> counts,
                               bool push_pull = true) {
  api::ScenarioSpec spec;
  spec.source.catalog = "endemic";
  spec.source.params = {rates.beta, rates.gamma, rates.alpha};
  if (push_pull) {
    spec.synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
  }
  spec.n = n;
  spec.seed = seed;
  spec.initial_counts = std::move(counts);
  return spec;
}

/// The Figure 1 machine started at the analytic equilibrium of eq. (2).
api::ScenarioSpec at_equilibrium(const core::EndemicRates& rates,
                                 std::size_t n, std::uint64_t seed) {
  const core::EndemicExpectation expected = core::endemic_expectation(n, rates);
  const auto rx = static_cast<std::size_t>(expected.receptives);
  const auto sy = static_cast<std::size_t>(expected.stashers);
  return endemic_spec(rates, n, seed, {rx, sy, n - rx - sy});
}

TEST(EndemicTest, ParameterValidation) {
  // Synthesis refuses rates the Figure 1 machine cannot run: no contact
  // (beta = 0) or no deletion (gamma = 0) leaves an unpaired term, and at
  // the machine's full rate (p = 1) alpha is a per-period coin bias.
  auto launch = [](const core::EndemicRates& rates,
                   std::optional<double> p = std::nullopt) {
    api::ScenarioSpec spec = endemic_spec(rates, 100, 1, {50, 50, 0});
    spec.synthesis.p = p;
    api::Experiment experiment(spec);
    (void)experiment.launch();
  };
  EXPECT_THROW(launch({.beta = 0.0, .gamma = 0.1, .alpha = 0.001}),
               core::SynthesisError);
  EXPECT_THROW(launch({.beta = 4.0, .gamma = 0.0, .alpha = 0.001}),
               core::SynthesisError);
  EXPECT_THROW(launch({.beta = 4.0, .gamma = 0.1, .alpha = 1.5}, 1.0),
               core::SynthesisError);
  EXPECT_NO_THROW(launch({.beta = 4.0, .gamma = 0.1, .alpha = 0.001}, 1.0));
}

TEST(EndemicTest, PopulationsTrackAnalyticEquilibrium) {
  // Figure 7's verification at laptop scale: N = 20000, b = 2, gamma = 0.1,
  // alpha = 0.001; median populations over a window must match eq. (2).
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.1, .alpha = 0.001};
  api::Experiment experiment(at_equilibrium(rates, 20000, 1));
  api::ExperimentRun run = experiment.launch();
  run.advance(600);
  const core::EndemicExpectation expected =
      core::endemic_expectation(20000, rates);
  const auto stash =
      run.simulator().metrics().summarize_state(kStash, 100, 600);
  const auto receptive =
      run.simulator().metrics().summarize_state(kReceptive, 100, 600);
  EXPECT_NEAR(stash.median, expected.stashers, 0.15 * expected.stashers);
  EXPECT_NEAR(receptive.median, expected.receptives,
              0.15 * expected.receptives);
}

TEST(EndemicTest, SafetyReplicasNeverVanish) {
  // With y_inf ~ 100 replicas the extinction probability is 2^-100 per
  // period: the replica population must stay positive over the whole run.
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.1, .alpha = 0.001};
  api::Experiment experiment(at_equilibrium(rates, 10000, 2));
  api::ExperimentRun run = experiment.launch();
  for (int k = 0; k < 50; ++k) {
    run.advance(10);
    EXPECT_GT(run.group().count(kStash), 0U);
  }
}

TEST(EndemicTest, LivenessEveryStasherEventuallyDeletes) {
  // gamma = 0.5: a stasher stays ~2 periods. Track one specific stasher.
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.5, .alpha = 0.5};
  api::Experiment experiment(endemic_spec(rates, 200, 3, {100, 100, 0}));
  api::ExperimentRun run = experiment.launch();
  // All original stashers (pids 100..199) must leave the stash state at
  // some point within a generous horizon.
  std::vector<bool> left(200, false);
  for (int period = 0; period < 200; ++period) {
    run.advance(1);
    for (sim::ProcessId pid = 100; pid < 200; ++pid) {
      if (run.group().state_of(pid) != kStash) left[pid] = true;
    }
  }
  for (sim::ProcessId pid = 100; pid < 200; ++pid) {
    EXPECT_TRUE(left[pid]) << "process " << pid << " never deleted";
  }
}

TEST(EndemicTest, FairnessStashDutySpreadsAcrossHosts) {
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.2, .alpha = 0.05};
  api::Experiment experiment(at_equilibrium(rates, 500, 4));
  api::ExperimentRun run = experiment.launch();
  // Periods each host spends in the stash state, counted at the start of
  // every period.
  std::vector<std::uint64_t> duty(500, 0);
  for (int period = 0; period < 4000; ++period) {
    for (const sim::ProcessId pid : run.group().members(kStash)) ++duty[pid];
    run.advance(1);
  }
  const std::size_t served =
      static_cast<std::size_t>(std::count_if(duty.begin(), duty.end(),
                                             [](std::uint64_t d) {
                                               return d > 0;
                                             }));
  // Symmetric protocol: practically every host bears responsibility.
  EXPECT_GT(served, 450U);
  // And no host hoards: the maximum duty is a small multiple of the mean.
  const double mean =
      static_cast<double>(std::accumulate(duty.begin(), duty.end(), 0ULL)) /
      static_cast<double>(duty.size());
  const double max =
      static_cast<double>(*std::max_element(duty.begin(), duty.end()));
  EXPECT_LT(max, 12.0 * mean);
}

TEST(EndemicTest, MassiveFailureHalvesStashersNotReceptives) {
  // The Figure 5 phenomenon: after 50% of hosts crash, stasher count halves
  // while the receptive count recovers to its old absolute value (fruitless
  // contacts halve the effective b, doubling x_inf as a fraction).
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.1, .alpha = 0.001};
  const std::size_t n = 20000;
  api::Experiment experiment(at_equilibrium(rates, n, 5));
  api::ExperimentRun run = experiment.launch();
  const sim::MetricsCollector& metrics = run.simulator().metrics();
  run.advance(200);
  const double stash_before = metrics.summarize_state(kStash, 100, 200).median;
  run.simulator().schedule_massive_failure(200, 0.5);
  run.advance(600);
  const auto stash_after = metrics.summarize_state(kStash, 500, 800);
  const auto receptive_after = metrics.summarize_state(kReceptive, 500, 800);
  EXPECT_NEAR(stash_after.median, stash_before / 2.0, 0.25 * stash_before);
  const core::EndemicExpectation expected = core::endemic_expectation(n, rates);
  EXPECT_NEAR(receptive_after.median, expected.receptives,
              0.3 * expected.receptives);
  // Figure 6: the file flux follows the halved stash population (gamma * Y)
  // instead of spiking after the failure.
  const auto flux_after = metrics.summarize_flux(kReceptive, kStash, 500, 800);
  EXPECT_NEAR(flux_after.mean, rates.gamma * stash_after.median,
              0.3 * rates.gamma * stash_after.median);
}

TEST(EndemicTest, PushDisabledStillConvergesButSlower) {
  // Ablation A2: the Figure 1 push-pull machine against the pure mapping
  // of eq. (1) at the same rates. The pure machine pulls once per period
  // with p = 1/beta, so it spreads a fresh file more slowly ...
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.1, .alpha = 0.01};
  const std::size_t n = 2000;
  auto periods_to_half = [&](bool push_pull) {
    api::Experiment experiment(
        endemic_spec(rates, n, 6, {n - 1, 1, 0}, push_pull));
    api::ExperimentRun run = experiment.launch();
    while (run.group().count(kStash) + run.group().count(kAverse) < n / 2 &&
           run.period() < 1000) {
      run.advance(1);
    }
    return run.period();
  };
  EXPECT_LT(periods_to_half(true), periods_to_half(false));

  // ... but both realize beta, so both converge to the same eq. (2)
  // population.
  const core::EndemicExpectation expected = core::endemic_expectation(n, rates);
  for (const bool push_pull : {false, true}) {
    api::Experiment experiment(
        endemic_spec(rates, n, 6, {1000, 1000, 0}, push_pull));
    api::ExperimentRun run = experiment.launch();
    run.advance(1000);
    const auto stash =
        run.simulator().metrics().summarize_state(kStash, 500, 1000);
    EXPECT_NEAR(stash.median, expected.stashers, 0.15 * expected.stashers)
        << (push_pull ? "push-pull" : "pure");
  }
}

TEST(EndemicTest, FluxMatchesGammaTimesStashers) {
  // At equilibrium, receptive->stash transfers per period ~= gamma * Y,
  // whatever the averse dwell time 1/alpha: alpha -> 1 degenerates toward
  // a 2-state protocol, and the transfer cost per replica stays gamma.
  for (const double alpha : {0.001, 0.5}) {
    const core::EndemicRates rates{.beta = 4.0, .gamma = 0.1, .alpha = alpha};
    api::Experiment experiment(at_equilibrium(rates, 20000, 7));
    api::ExperimentRun run = experiment.launch();
    run.advance(500);
    const auto flux = run.simulator().metrics().summarize_flux(
        kReceptive, kStash, 100, 500);
    const core::EndemicExpectation expected =
        core::endemic_expectation(20000, rates);
    EXPECT_NEAR(flux.mean, rates.gamma * expected.stashers,
                0.3 * rates.gamma * expected.stashers)
        << "alpha " << alpha;
  }
}

TEST(EndemicTest, ChurnResistance) {
  // Figures 9-10 at reduced scale: N = 1000, b = 32, gamma = 0.1,
  // alpha = 0.005, hourly churn of 10-25% (10 periods per hour).
  const core::EndemicRates rates{.beta = 64.0, .gamma = 0.1, .alpha = 0.005};
  const core::EndemicExpectation expected =
      core::endemic_expectation(1000, rates);
  const auto sy = static_cast<std::size_t>(expected.stashers);
  api::ScenarioSpec spec = endemic_spec(rates, 1000, 8, {1000 - sy, sy, 0});
  api::ChurnSpec& churn = spec.faults.churn;
  churn.enabled = true;
  churn.hours = 60.0;
  churn.min_rate = 0.10;
  churn.max_rate = 0.25;
  churn.mean_downtime_hours = 0.5;
  churn.seed = 99;
  churn.periods_per_hour = 10.0;
  api::Experiment experiment(spec);
  api::ExperimentRun run = experiment.launch();
  run.advance(550);
  // The stasher population stays positive and within sane bounds
  // throughout churn.
  const auto stash = run.simulator().metrics().summarize_state(kStash, 50, 550);
  EXPECT_GT(stash.min, 0.0);
  EXPECT_LT(stash.max, 6.0 * expected.stashers);
}

TEST(EndemicTest, RejoinStateIsReceptive) {
  // Every backend revives a host into state 0, which the synthesized
  // machine assigns to x: a host back from a crash holds no replica and
  // is receptive again, whatever it held before.
  const core::EndemicRates rates{.beta = 4.0, .gamma = 0.1, .alpha = 0.001};
  // pid 0 holds the only replica; everyone else is averse.
  api::Experiment experiment(endemic_spec(rates, 100, 9, {0, 1, 99}));
  ASSERT_EQ(experiment.artifacts().synthesis.machine.state_index("x"),
            kReceptive);
  api::ExperimentRun run = experiment.launch();
  ASSERT_EQ(run.group().state_of(0), kStash);
  ASSERT_EQ(run.group().state_of(99), kAverse);
  run.simulator().schedule_crash(0, 0.0, /*recover_time=*/2.0);
  run.simulator().schedule_crash(99, 0.0, /*recover_time=*/2.0);
  run.advance(1);
  EXPECT_FALSE(run.group().alive(0));
  EXPECT_FALSE(run.group().alive(99));
  // With the replica gone nothing can pull a receptive host into stash,
  // so the rejoin state stays observable.
  ASSERT_EQ(run.group().count(kStash), 0U);
  run.advance(2);
  ASSERT_TRUE(run.group().alive(0));
  ASSERT_TRUE(run.group().alive(99));
  EXPECT_EQ(run.group().state_of(0), kReceptive);
  EXPECT_EQ(run.group().state_of(99), kReceptive);
}

}  // namespace
}  // namespace deproto
