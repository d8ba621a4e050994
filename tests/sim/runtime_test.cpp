#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/mean_field.hpp"
#include "core/synthesis.hpp"
#include "numerics/integrator.hpp"
#include "ode/catalog.hpp"
#include "sim/sync_sim.hpp"

namespace deproto::sim {
namespace {

TEST(MachineExecutorTest, SynthesizedEpidemicInfectsEveryone) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  MachineExecutor executor(result.machine);
  SyncSimulator simulator(500, executor, 1);
  simulator.seed_states({499, 1});
  simulator.run(40);
  EXPECT_EQ(simulator.group().count(1), 500U);
}

TEST(MachineExecutorTest, ProbeCountMatchesMessageComplexity) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  MachineExecutor executor(result.machine);
  SyncSimulator simulator(100, executor, 2);
  simulator.seed_states({100, 0});  // everyone susceptible, nobody infected
  simulator.run(1);
  // Every susceptible sends exactly 1 probe per period.
  EXPECT_EQ(executor.probes_total(), 100U);
  simulator.run(1);
  EXPECT_EQ(executor.probes_total(), 200U);
}

TEST(MachineExecutorTest, LvExecutorTracksOdeTrajectory) {
  // Mean-field check at protocol scale: the interpreted LV machine's
  // population fractions follow the ODE within a few percent at N = 4000.
  const double p = 0.05;
  const auto result =
      core::synthesize(ode::catalog::lv_partitionable(), {.p = p});
  MachineExecutor executor(result.machine);
  const std::size_t n = 4000;
  SyncSimulator simulator(n, executor, 3);
  simulator.seed_states({n * 6 / 10, n * 4 / 10, 0});

  // ODE reference: p-scaled system over the same horizon.
  const auto scaled = ode::catalog::lv_partitionable().scaled(p);
  num::Vec x{0.6, 0.4, 0.0};
  const num::OdeFunction f = num::ode_function(scaled);

  const std::size_t horizon = 60;
  simulator.run(horizon);
  num::integrate_fixed(f, x, 0.0, static_cast<double>(horizon), 0.01);

  for (std::size_t s = 0; s < 3; ++s) {
    const double simulated =
        static_cast<double>(simulator.group().count(s)) /
        static_cast<double>(n);
    EXPECT_NEAR(simulated, x[s], 0.05) << "state " << s;
  }
}

TEST(MachineExecutorTest, MessageLossSlowsSpread) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  auto run_infected_after = [&](double loss, std::uint64_t seed) {
    RuntimeOptions options;
    options.message_loss = loss;
    MachineExecutor executor(result.machine, options);
    SyncSimulator simulator(2000, executor, seed);
    simulator.seed_states({1000, 1000});
    simulator.run(1);
    return simulator.group().count(1);
  };
  // One period from a 50/50 start: conversions with loss f shrink by ~(1-f).
  double no_loss = 0.0, with_loss = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    no_loss += static_cast<double>(run_infected_after(0.0, seed)) - 1000.0;
    with_loss += static_cast<double>(run_infected_after(0.5, seed)) - 1000.0;
  }
  EXPECT_NEAR(with_loss / no_loss, 0.5, 0.1);
}

TEST(MachineExecutorTest, TokenizingDirectoryDeliversOrDrops) {
  // invitation: y-processes invite x-processes to become y.
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  MachineExecutor executor(result.machine);
  SyncSimulator simulator(100, executor, 4);
  simulator.seed_states({50, 50});
  simulator.run(30);
  // Every x eventually converted; tokens generated and delivered.
  EXPECT_EQ(simulator.group().count(1), 100U);
  EXPECT_GT(executor.token_stats().delivered, 0U);
  // Once x is empty, further tokens drop.
  simulator.run(5);
  EXPECT_GT(executor.token_stats().dropped, 0U);
}

TEST(MachineExecutorTest, TokenTtlWalkConvergesSlower) {
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  RuntimeOptions directory;
  RuntimeOptions walk;
  walk.tokens.mode = TokenRouting::Mode::RandomWalkTtl;
  walk.tokens.ttl = 1;  // a single hop: hits an x-process w.p. |x|/N

  MachineExecutor fast(result.machine, directory);
  MachineExecutor slow(result.machine, walk);
  SyncSimulator sim_fast(400, fast, 5);
  SyncSimulator sim_slow(400, slow, 5);
  sim_fast.seed_states({200, 200});
  sim_slow.seed_states({200, 200});
  // One period: directory tokens always land while x's remain; the single
  // hop of the TTL walk misses roughly half the time.
  sim_fast.run(1);
  sim_slow.run(1);
  EXPECT_GT(sim_fast.group().count(1),
            sim_slow.group().count(1) + 40U);
  EXPECT_GT(slow.token_stats().dropped, 0U);
  // Directory routing only drops when the target state is empty.
  EXPECT_GT(fast.token_stats().delivered, slow.token_stats().delivered);
}

TEST(MachineExecutorTest, EndemicPushPullVariantHoldsEquilibrium) {
  // Moderate rates (per-period transition probabilities well below 1, the
  // regime the mean-field analysis assumes): beta = 4, gamma = 0.2,
  // alpha = 0.02 -> equilibrium x = 0.05, y ~ 0.0864.
  core::SynthesisOptions options;
  options.push_pull.push_back(core::PushPullSpec{"x", "y"});
  const auto result =
      core::synthesize(ode::catalog::endemic(4.0, 0.2, 0.02), options);
  MachineExecutor executor(result.machine);
  const std::size_t n = 4000;
  SyncSimulator simulator(n, executor, 6);
  const double x_inf = 0.05, y_inf = 0.95 / 11.0;
  const auto sx = static_cast<std::size_t>(x_inf * n);
  const auto sy = static_cast<std::size_t>(y_inf * n);
  simulator.seed_states({sx, sy, n - sx - sy});
  simulator.run(400);
  // Stays near the equilibrium (Theorem 3's self-stabilization). The
  // finite-fanout pull saturates slightly below the bilinear rate, so allow
  // a generous band around the analytic point.
  const double y_frac =
      static_cast<double>(simulator.group().count(1)) / n;
  EXPECT_GT(y_frac, 0.3 * y_inf);
  EXPECT_LT(y_frac, 2.5 * y_inf);
}

}  // namespace
}  // namespace deproto::sim
