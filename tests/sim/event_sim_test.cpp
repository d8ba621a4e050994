#include "sim/event_sim.hpp"

#include <gtest/gtest.h>

#include "core/synthesis.hpp"
#include "ode/catalog.hpp"

namespace deproto::sim {
namespace {

TEST(EventSimTest, AsynchronousEpidemicStillInfectsEveryone) {
  // No global clock: per-process periods have arbitrary phase and 5% drift,
  // probes ride on a lossy, latency-jittered network.
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimOptions options;
  options.clock_drift = 0.05;
  options.network.loss = 0.05;
  EventSimulator simulator(300, result.machine, 1, options);
  simulator.seed_states({299, 1});
  simulator.run_until(60.0);
  EXPECT_EQ(simulator.group().count(1), 300U);
  EXPECT_GT(simulator.network().sent(), 0U);
  EXPECT_GT(simulator.network().dropped(), 0U);
}

TEST(EventSimTest, MetricsSampledEveryPeriod) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(50, result.machine, 2);
  simulator.seed_states({49, 1});
  simulator.run_until(10.0);
  // Samples at t = 0, 1, ..., 10.
  EXPECT_EQ(simulator.metrics().samples().size(), 11U);
  EXPECT_NEAR(simulator.metrics().samples().back().time, 10.0, 1e-9);
}

TEST(EventSimTest, MassiveFailureReducesAliveCount) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(200, result.machine, 3);
  simulator.seed_states({199, 1});
  simulator.schedule_massive_failure(5.0, 0.5);
  simulator.run_until(10.0);
  EXPECT_EQ(simulator.group().total_alive(), 100U);
}

TEST(EventSimTest, CrashStopsTicksRecoveryRestartsThem) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(10, result.machine, 4);
  simulator.seed_states({9, 1});
  simulator.schedule_crash(0, 1.0, /*recover_time=*/3.0);
  simulator.run_until(2.0);
  EXPECT_FALSE(simulator.group().alive(0));
  simulator.run_until(20.0);
  EXPECT_TRUE(simulator.group().alive(0));
  // The recovered process rejoined the epidemic and got infected again.
  EXPECT_EQ(simulator.group().count(1), 10U);
}

TEST(EventSimTest, LvConvergesToMajorityAsynchronously) {
  const auto result =
      core::synthesize(ode::catalog::lv_partitionable(), {.p = 0.1});
  EventSimOptions options;
  options.clock_drift = 0.1;
  options.network.loss = 0.02;
  EventSimulator simulator(400, result.machine, 5, options);
  simulator.seed_states({280, 120, 0});
  simulator.run_until(200.0);
  // Majority x wins.
  EXPECT_EQ(simulator.group().count(0), 400U);
}

TEST(EventSimTest, TokenWalkModeWorksOverMessages) {
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  EventSimOptions options;
  options.tokens.mode = TokenRouting::Mode::RandomWalkTtl;
  options.tokens.ttl = 16;
  EventSimulator simulator(100, result.machine, 6, options);
  simulator.seed_states({50, 50});
  simulator.run_until(60.0);
  EXPECT_GT(simulator.group().count(1), 95U);
}

TEST(EventSimTest, CountsTokensOnBothRoutings) {
  // The shared async runtime keeps TokenStats for the event carrier too:
  // every token is generated once, then delivered, dropped or in flight.
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  EventSimOptions options;
  options.network.loss = 0.1;
  EventSimulator directory(100, result.machine, 6, options);
  directory.seed_states({50, 50});
  directory.run_until(30.0);
  const TokenStats& t = directory.token_stats();
  EXPECT_GT(t.delivered, 0U);
  EXPECT_GT(t.dropped, 0U);  // lost on the 10%-lossy network
  EXPECT_LE(t.delivered + t.dropped, t.generated);

  // A walk with no hops drops every token it makes.
  options.tokens.mode = TokenRouting::Mode::RandomWalkTtl;
  options.tokens.ttl = 0;
  EventSimulator expired(100, result.machine, 6, options);
  expired.seed_states({50, 50});
  expired.run_until(30.0);
  EXPECT_GT(expired.token_stats().generated, 0U);
  EXPECT_EQ(expired.token_stats().dropped, expired.token_stats().generated);
  EXPECT_EQ(expired.token_stats().delivered, 0U);
  EXPECT_EQ(expired.group().count(1), 50U);
}

TEST(EventSimTest, ValidatesDrift) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimOptions options;
  options.clock_drift = 0.9;
  EXPECT_THROW(EventSimulator(10, result.machine, 7, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace deproto::sim
