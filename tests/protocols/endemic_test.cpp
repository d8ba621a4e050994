#include "protocols/endemic_replication.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "protocols/analysis.hpp"
#include "sim/sync_sim.hpp"

namespace deproto::proto {
namespace {

/// Start a simulator at the analytic equilibrium of eq. (2).
sim::SyncSimulator at_equilibrium(std::size_t n,
                                  EndemicReplication& protocol,
                                  std::uint64_t seed) {
  sim::SyncSimulator simulator(n, protocol, seed);
  const EndemicExpectation expected =
      endemic_expectation(n, protocol.params());
  const auto rx = static_cast<std::size_t>(expected.receptives);
  const auto sy = static_cast<std::size_t>(expected.stashers);
  simulator.seed_states({rx, sy, n - rx - sy});
  return simulator;
}

TEST(EndemicTest, ParameterValidation) {
  EXPECT_THROW(EndemicReplication({.b = 0}), std::invalid_argument);
  EXPECT_THROW(EndemicReplication({.b = 2, .gamma = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(EndemicReplication({.b = 2, .gamma = 0.1, .alpha = 1.5}),
               std::invalid_argument);
}

TEST(EndemicTest, PopulationsTrackAnalyticEquilibrium) {
  // Figure 7's verification at laptop scale: N = 20000, b = 2, gamma = 0.1,
  // alpha = 0.001; median populations over a window must match eq. (2).
  EndemicReplication protocol({.b = 2, .gamma = 0.1, .alpha = 0.001});
  auto simulator = at_equilibrium(20000, protocol, 1);
  simulator.run(600);
  const EndemicExpectation expected =
      endemic_expectation(20000, protocol.params());
  const auto stash = simulator.metrics().summarize_state(
      EndemicReplication::kStash, 100, 600);
  const auto receptive = simulator.metrics().summarize_state(
      EndemicReplication::kReceptive, 100, 600);
  EXPECT_NEAR(stash.median, expected.stashers, 0.15 * expected.stashers);
  EXPECT_NEAR(receptive.median, expected.receptives,
              0.15 * expected.receptives);
}

TEST(EndemicTest, SafetyReplicasNeverVanish) {
  // With y_inf ~ 100 replicas the extinction probability is 2^-100 per
  // period: the replica population must stay positive over the whole run.
  EndemicReplication protocol({.b = 2, .gamma = 0.1, .alpha = 0.001});
  auto simulator = at_equilibrium(10000, protocol, 2);
  for (int k = 0; k < 50; ++k) {
    simulator.run(10);
    EXPECT_GT(simulator.group().count(EndemicReplication::kStash), 0U);
  }
}

TEST(EndemicTest, LivenessEveryStasherEventuallyDeletes) {
  // gamma = 0.5: a stasher stays ~2 periods. Track one specific stasher.
  EndemicReplication protocol({.b = 2, .gamma = 0.5, .alpha = 0.5});
  sim::SyncSimulator simulator(200, protocol, 3);
  simulator.seed_states({100, 100, 0});
  // All original stashers (pids 100..199) must leave the stash state at
  // some point within a generous horizon.
  std::vector<bool> left(200, false);
  for (int period = 0; period < 200; ++period) {
    simulator.run(1);
    for (sim::ProcessId pid = 100; pid < 200; ++pid) {
      if (simulator.group().state_of(pid) != EndemicReplication::kStash) {
        left[pid] = true;
      }
    }
  }
  for (sim::ProcessId pid = 100; pid < 200; ++pid) {
    EXPECT_TRUE(left[pid]) << "process " << pid << " never deleted";
  }
}

TEST(EndemicTest, FairnessStashDutySpreadsAcrossHosts) {
  EndemicReplication protocol({.b = 2, .gamma = 0.2, .alpha = 0.05});
  auto simulator = at_equilibrium(500, protocol, 4);
  simulator.run(4000);
  const auto& duty = protocol.stash_periods();
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
  EndemicReplication protocol({.b = 2, .gamma = 0.1, .alpha = 0.001});
  const std::size_t n = 20000;
  auto simulator = at_equilibrium(n, protocol, 5);
  simulator.run(200);
  const double stash_before = simulator.metrics()
                                  .summarize_state(EndemicReplication::kStash,
                                                   100, 200)
                                  .median;
  simulator.schedule_massive_failure(200, 0.5);
  simulator.run(600);
  const auto stash_after = simulator.metrics().summarize_state(
      EndemicReplication::kStash, 500, 800);
  const auto receptive_after = simulator.metrics().summarize_state(
      EndemicReplication::kReceptive, 500, 800);
  EXPECT_NEAR(stash_after.median, stash_before / 2.0, 0.25 * stash_before);
  const EndemicExpectation expected = endemic_expectation(n, protocol.params());
  EXPECT_NEAR(receptive_after.median, expected.receptives,
              0.3 * expected.receptives);
  // Figure 6: the file flux follows the halved stash population (gamma * Y)
  // instead of spiking after the failure.
  const auto flux_after = simulator.metrics().summarize_flux(
      EndemicReplication::kReceptive, EndemicReplication::kStash, 500, 800);
  const double gamma = protocol.params().gamma;
  EXPECT_NEAR(flux_after.mean, gamma * stash_after.median,
              0.3 * gamma * stash_after.median);
}

TEST(EndemicTest, PushDisabledStillConvergesButSlower) {
  EndemicReplication with_push({.b = 2, .gamma = 0.1, .alpha = 0.01});
  EndemicReplication no_push(
      {.b = 2, .gamma = 0.1, .alpha = 0.01, .push_enabled = false});
  sim::SyncSimulator sim_push(2000, with_push, 6);
  sim::SyncSimulator sim_nopush(2000, no_push, 6);
  // Start both from a single stasher.
  sim_push.seed_states({1999, 1, 0});
  sim_nopush.seed_states({1999, 1, 0});
  sim_push.run(50);
  sim_nopush.run(50);
  EXPECT_GT(sim_push.group().count(EndemicReplication::kStash) +
                sim_push.group().count(EndemicReplication::kAverse),
            sim_nopush.group().count(EndemicReplication::kStash) +
                sim_nopush.group().count(EndemicReplication::kAverse));

  // Pull-only at b = 4 has the contact rate beta = 4 of push+pull at b = 2,
  // so it converges to the same eq. (2) population.
  EndemicReplication pull_only(
      {.b = 4, .gamma = 0.1, .alpha = 0.01, .push_enabled = false});
  sim::SyncSimulator sim_pull(2000, pull_only, 6);
  sim_pull.seed_states({1000, 1000, 0});
  sim_pull.run(1000);
  const auto stash = sim_pull.metrics().summarize_state(
      EndemicReplication::kStash, 500, 1000);
  const EndemicExpectation expected =
      endemic_expectation(2000, with_push.params());
  ASSERT_DOUBLE_EQ(endemic_expectation(2000, pull_only.params()).stashers,
                   expected.stashers);
  EXPECT_NEAR(stash.median, expected.stashers, 0.15 * expected.stashers);
}

TEST(EndemicTest, FluxMatchesGammaTimesStashers) {
  // At equilibrium, receptive->stash transfers per period ~= gamma * Y,
  // whatever the averse dwell time 1/alpha: alpha -> 1 degenerates toward
  // a 2-state protocol, and the transfer cost per replica stays gamma.
  for (const double alpha : {0.001, 0.5}) {
    EndemicReplication protocol({.b = 2, .gamma = 0.1, .alpha = alpha});
    auto simulator = at_equilibrium(20000, protocol, 7);
    simulator.run(500);
    const auto flux = simulator.metrics().summarize_flux(
        EndemicReplication::kReceptive, EndemicReplication::kStash, 100, 500);
    const EndemicExpectation expected =
        endemic_expectation(20000, protocol.params());
    EXPECT_NEAR(flux.mean, protocol.params().gamma * expected.stashers,
                0.3 * protocol.params().gamma * expected.stashers)
        << "alpha " << alpha;
  }
}

TEST(EndemicTest, ChurnResistance) {
  // Figures 9-10 at reduced scale: N = 1000, b = 32, gamma = 0.1,
  // alpha = 0.005, hourly churn of 10-25% (10 periods per hour).
  EndemicReplication protocol({.b = 32, .gamma = 0.1, .alpha = 0.005});
  sim::SyncSimulator simulator(1000, protocol, 8);
  sim::Rng churn_rng(99);
  const auto trace =
      sim::ChurnTrace::synthetic_overnet(1000, 60.0, 0.10, 0.25, 0.5,
                                         churn_rng);
  simulator.attach_churn(trace, 10.0);
  const EndemicExpectation expected =
      endemic_expectation(1000, protocol.params());
  const auto sy = static_cast<std::size_t>(expected.stashers);
  simulator.seed_states({1000 - sy, sy, 0});
  simulator.run(550);
  // The stasher population stays positive and within sane bounds
  // throughout churn.
  const auto stash = simulator.metrics().summarize_state(
      EndemicReplication::kStash, 50, 550);
  EXPECT_GT(stash.min, 0.0);
  EXPECT_LT(stash.max, 6.0 * expected.stashers);
}

TEST(EndemicTest, RejoinStateIsReceptive) {
  EndemicReplication protocol({.b = 2, .gamma = 0.1, .alpha = 0.001});
  EXPECT_EQ(protocol.rejoin_state(), EndemicReplication::kReceptive);
}

}  // namespace
}  // namespace deproto::proto
