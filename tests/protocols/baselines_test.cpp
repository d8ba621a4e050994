#include "protocols/baselines.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "api/experiment.hpp"
#include "sim/sync_sim.hpp"

namespace deproto::proto {
namespace {

constexpr std::size_t kStash = 1;  // the endemic machine's state y

/// The Figure 1 endemic machine (eq. (1) with push + pull, b = beta/2
/// contacts each way) on n hosts.
api::ScenarioSpec endemic_spec(double beta, double gamma, double alpha,
                               std::size_t n, std::uint64_t seed,
                               std::vector<std::size_t> counts) {
  api::ScenarioSpec spec;
  spec.source.catalog = "endemic";
  spec.source.params = {beta, gamma, alpha};
  spec.synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
  spec.n = n;
  spec.seed = seed;
  spec.initial_counts = std::move(counts);
  return spec;
}

TEST(HandoffTest, ReplicasAreMartingaleWithoutFailures) {
  // In a failure-free closed group, hand-offs can only lose replicas to
  // merges; the count never increases.
  HandoffMigration protocol({.handoff_prob = 0.5});
  sim::SyncSimulator simulator(200, protocol, 1);
  simulator.seed_states({190, 10});
  std::size_t last = 10;
  for (int k = 0; k < 50; ++k) {
    simulator.run(1);
    const std::size_t now =
        simulator.group().count(HandoffMigration::kHolder);
    EXPECT_LE(now, last);
    last = now;
  }
}

TEST(HandoffTest, CrashStopDrivesReplicasExtinct) {
  // Section 4.1.1's drawback: with crash-stop failures, every replica
  // eventually lands on a host that dies (or transfers into a void).
  HandoffMigration protocol({.handoff_prob = 0.3});
  sim::SyncSimulator simulator(500, protocol, 2);
  simulator.seed_states({480, 20});
  simulator.set_crash_recovery(0.01, 50.0);  // mild crash-recovery churn
  simulator.run(2000);
  EXPECT_EQ(simulator.group().count(HandoffMigration::kHolder), 0U);
  EXPECT_GT(protocol.replicas_lost(), 0U);
}

TEST(HandoffTest, EndemicSurvivesTheSameStress) {
  // The head-to-head the paper's design motivates: same churn, endemic
  // replication (b = 4) keeps the object alive while hand-off loses it.
  api::ScenarioSpec spec = endemic_spec(8.0, 0.1, 0.05, 500, 2, {440, 60, 0});
  spec.faults.crash_recovery.crash_prob = 0.01;
  spec.faults.crash_recovery.mean_downtime_periods = 50.0;
  api::Experiment experiment(spec);
  api::ExperimentRun run = experiment.launch();
  run.advance(2000);
  EXPECT_GT(run.group().count(kStash), 0U);
}

TEST(StaticReplicationTest, RepairsAfterDetectionDelay) {
  StaticReplication protocol({.replicas = 10, .detection_delay = 3});
  sim::SyncSimulator simulator(200, protocol, 3);
  simulator.seed_states({190, 10});
  // Crash two holders (routing the crash through the protocol's detector,
  // as the simulator does for failures it injects).
  const std::vector<sim::ProcessId> holders =
      simulator.group().members(StaticReplication::kHolder);
  for (int k = 0; k < 2; ++k) {
    protocol.on_crash(holders[static_cast<std::size_t>(k)]);
    simulator.group().crash(holders[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(simulator.group().count(StaticReplication::kHolder), 8U);
  simulator.run(10);
  EXPECT_EQ(simulator.group().count(StaticReplication::kHolder), 10U);
  EXPECT_GE(protocol.repairs_done(), 2U);
}

TEST(StaticReplicationTest, MassiveFailureCanBeUnrecoverable) {
  // With k replicas, a failure burst hitting all k holders destroys the
  // object permanently -- the attack scenario migratory replication avoids.
  int extinctions = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    StaticReplication protocol({.replicas = 3, .detection_delay = 5});
    sim::SyncSimulator simulator(30, protocol,
                                 static_cast<std::uint64_t>(t));
    simulator.seed_states({27, 3});
    simulator.schedule_massive_failure(2, 0.8);
    simulator.run(50);
    if (protocol.extinct(simulator.group())) ++extinctions;
  }
  // P(all 3 holders among the 80%) ~ 0.5 per trial; expect many losses.
  EXPECT_GT(extinctions, 4);
}

TEST(StaticReplicationTest, TargetedAttackKillsStaticButNotEndemic) {
  // The paper's security argument (Section 4.1, drawback (2)): an attacker
  // snapshots the current replica holders and destroys exactly those hosts
  // a little later. Static placement dies every time; migratory replication
  // has usually moved on by the time the attack lands.
  int static_extinct = 0, endemic_extinct = 0;
  const int trials = 12;
  const std::size_t n = 400;
  const std::size_t attack_delay = 12;  // periods between snapshot and kill

  for (int t = 0; t < trials; ++t) {
    const auto seed = static_cast<std::uint64_t>(1000 + t);
    // --- static/reactive placement ---
    {
      StaticReplication protocol({.replicas = 8, .detection_delay = 3});
      sim::SyncSimulator simulator(n, protocol, seed);
      simulator.seed_states({n - 8, 8});
      simulator.run(20);
      const auto snapshot =
          simulator.group().members(StaticReplication::kHolder);
      simulator.run(attack_delay);
      for (sim::ProcessId pid : snapshot) {
        if (simulator.group().alive(pid)) {
          protocol.on_crash(pid);
          simulator.group().crash(pid);
        }
      }
      simulator.run(30);
      if (protocol.extinct(simulator.group())) ++static_extinct;
    }
    // --- endemic replication (b = 4), same replica budget ---
    {
      api::Experiment experiment(
          endemic_spec(8.0, 0.2, 0.1, n, seed, {n - 16, 8, 8}));
      api::ExperimentRun run = experiment.launch();
      run.advance(20);
      const auto snapshot = run.group().members(kStash);
      run.advance(attack_delay);
      for (sim::ProcessId pid : snapshot) {
        if (run.group().alive(pid)) run.group().crash(pid);
      }
      run.advance(30);
      if (run.group().count(kStash) == 0) ++endemic_extinct;
    }
  }
  // Static replicas never move: the snapshot is always exact => extinct.
  EXPECT_EQ(static_extinct, trials);
  // Endemic replicas migrate during the attack delay; most runs survive.
  EXPECT_LT(endemic_extinct, trials / 2);
}

TEST(BaselineValidationTest, ParameterChecks) {
  EXPECT_THROW(HandoffMigration({.handoff_prob = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(StaticReplication({.replicas = 0}), std::invalid_argument);
}

}  // namespace
}  // namespace deproto::proto
