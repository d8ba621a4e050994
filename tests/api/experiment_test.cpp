// Experiment facade semantics: run() reproduces the legacy hand-wired
// pipelines bit-for-bit at a fixed seed (the refactor moved wiring, not
// behavior), the fault plan reaches the simulator, and the structured
// result is internally consistent.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "api/experiment.hpp"
#include "api/job_metrics.hpp"
#include "api/registry.hpp"
#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "sim/runtime.hpp"
#include "sim/sync_sim.hpp"

namespace deproto::api {
namespace {

TEST(ExperimentTest, MatchesLegacyQuickstartWiring) {
  // The legacy examples/quickstart.cpp path, hand-wired: synthesize the
  // epidemic, run 10,000 processes from one infective, seed 2004.
  const core::SynthesisResult synth =
      core::synthesize(ode::catalog::epidemic());
  sim::MachineExecutor executor(synth.machine);
  sim::SyncSimulator simulator(10000, executor, /*seed=*/2004);
  simulator.seed_states({9999, 1});
  simulator.run(26);

  const ExperimentResult result =
      Experiment(registry_get("epidemic")).run();

  ASSERT_EQ(result.final_counts.size(), 2U);
  EXPECT_EQ(result.final_counts[0], simulator.group().count(0));
  EXPECT_EQ(result.final_counts[1], simulator.group().count(1));
  EXPECT_EQ(result.final_alive, simulator.group().total_alive());
  // Not just the endpoint: every recorded period matches the legacy
  // metrics stream.
  const auto& legacy = simulator.metrics().samples();
  ASSERT_EQ(result.series.size(), legacy.size());
  for (std::size_t t = 0; t < legacy.size(); ++t) {
    EXPECT_EQ(result.series[t].counts, legacy[t].alive_in_state) << t;
  }
}

TEST(ExperimentTest, MatchesLegacySynthEvenSpreadWiring) {
  // The legacy synth CLI's --simulate path: even spread n/m per state,
  // remainder left in state 0, message loss wired from the failure rate.
  const double loss = 0.1;
  core::SynthesisOptions options;
  options.failure_rate = loss;
  const core::SynthesisResult synth =
      core::synthesize(ode::catalog::epidemic(), options);
  sim::RuntimeOptions runtime;
  runtime.message_loss = loss;
  sim::MachineExecutor executor(synth.machine, runtime);
  sim::SyncSimulator simulator(1001, executor, /*seed=*/5);
  simulator.seed_states({500, 500});  // 1001/2 per state, remainder stays
  simulator.run(30);

  ScenarioSpec spec;
  spec.source.ode_text = "x' = -x*y\ny' = x*y\n";
  spec.synthesis.failure_rate = loss;
  spec.runtime.message_loss = loss;
  spec.n = 1001;
  spec.periods = 30;
  spec.seed = 5;
  const ExperimentResult result = Experiment(std::move(spec)).run();

  EXPECT_EQ(result.initial_counts, (std::vector<std::size_t>{501, 500}));
  EXPECT_EQ(result.final_counts[0], simulator.group().count(0));
  EXPECT_EQ(result.final_counts[1], simulator.group().count(1));
}

TEST(ExperimentTest, LaunchAdvanceEqualsRun) {
  // Chunked advancing through the run handle is RNG-identical to the
  // one-shot run() (run(k) is a loop of single periods).
  const ScenarioSpec spec = registry_get("epidemic").scaled_to(600);
  const ExperimentResult one_shot = Experiment(spec).run();

  Experiment chunked(spec);
  ExperimentRun run = chunked.launch();
  run.advance(5);
  run.advance(20);
  run.advance(spec.periods - 25);
  const ExperimentResult stepped = run.finish();

  EXPECT_EQ(stepped.final_counts, one_shot.final_counts);
  EXPECT_EQ(stepped.series.size(), one_shot.series.size());
  EXPECT_EQ(run.period(), spec.periods);
}

TEST(ExperimentTest, CountsAtCoversInitialAndAllPeriods) {
  ScenarioSpec spec = registry_get("epidemic").scaled_to(400);
  spec.periods = 8;
  Experiment experiment(spec);
  const ExperimentResult result = experiment.run();
  EXPECT_EQ(result.counts_at(0), result.initial_counts);
  EXPECT_EQ(result.counts_at(8), result.final_counts);
  EXPECT_THROW((void)result.counts_at(9), std::out_of_range);
  std::size_t total = 0;
  for (const std::size_t c : result.counts_at(0)) total += c;
  EXPECT_EQ(total, 400U);
}

TEST(ExperimentTest, MassiveFailurePlanReachesTheSimulator) {
  ScenarioSpec spec = registry_get("epidemic").scaled_to(1000);
  spec.periods = 10;
  spec.faults.massive_failures.push_back(sim::MassiveFailure{3, 0.5});
  const ExperimentResult result = Experiment(std::move(spec)).run();
  EXPECT_EQ(result.final_alive, 500U);
  EXPECT_EQ(result.series[2].total_alive, 1000U);  // end of period 2
  EXPECT_EQ(result.series[3].total_alive, 500U);   // failure hit period 3
}

TEST(ExperimentTest, CrashRecoveryPlanReachesTheSimulator) {
  ScenarioSpec spec = registry_get("epidemic").scaled_to(2000);
  spec.periods = 50;
  spec.faults.crash_recovery = CrashRecoverySpec{0.05, 2.0};
  const ExperimentResult result = Experiment(std::move(spec)).run();
  // With 5% crashes/period and mean downtime 2, a steady-state fraction
  // ~ 1/(1 + 0.05*3) of processes is alive; far from both 0 and 2000.
  EXPECT_LT(result.final_alive, 2000U);
  EXPECT_GT(result.final_alive, 1000U);
}

TEST(ExperimentTest, ChurnPlanReachesTheSimulator) {
  ScenarioSpec spec = registry_get("endemic-churn").scaled_to(500);
  spec.periods = 40;
  const ExperimentResult result = Experiment(std::move(spec)).run();
  bool population_moved = false;
  for (const PeriodPoint& point : result.series) {
    if (point.total_alive != 500U) population_moved = true;
  }
  EXPECT_TRUE(population_moved);
}

TEST(ExperimentTest, EventBackendMatchesLegacyEventWiring) {
  const core::SynthesisResult synth =
      core::synthesize(ode::catalog::epidemic());
  sim::EventSimOptions options;
  options.clock_drift = 0.05;
  options.network.loss = 0.05;
  sim::EventSimulator simulator(500, synth.machine, /*seed=*/7, options);
  simulator.seed_states({499, 1});
  simulator.run_until(25.0);

  ScenarioSpec spec = registry_get("epidemic-event").scaled_to(500);
  spec.periods = 25;
  const ExperimentResult result = Experiment(std::move(spec)).run();
  EXPECT_EQ(result.final_counts[1], simulator.group().count(1));
  EXPECT_EQ(result.messages_sent, simulator.network().sent());
  EXPECT_EQ(result.messages_dropped, simulator.network().dropped());
}

TEST(ExperimentTest, EventLossCountersFeedTheSharedLossRateMetric) {
  // The event backend's synthetic message counters are live in the
  // result, and loss_rate = dropped / sent lands in the job-metric
  // vector -- the same column the net backend fills with measured loss.
  ScenarioSpec spec = registry_get("epidemic-event").scaled_to(500);
  spec.periods = 20;
  spec.runtime.message_loss = 0.2;
  const ExperimentResult result = Experiment(std::move(spec)).run();
  EXPECT_GT(result.messages_sent, 0U);
  EXPECT_GT(result.messages_dropped, 0U);
  EXPECT_FALSE(result.net_stats.has_value());  // simulated, not measured

  const auto metrics = detail::result_metrics(result);
  double loss_rate = -1.0;
  bool has_measured_columns = false;
  for (const auto& [name, value] : metrics) {
    if (name == "loss_rate") loss_rate = value;
    if (name == "observed_loss" || name == "rtt_ms_mean") {
      has_measured_columns = true;
    }
  }
  EXPECT_DOUBLE_EQ(loss_rate,
                   static_cast<double>(result.messages_dropped) /
                       static_cast<double>(result.messages_sent));
  EXPECT_NEAR(loss_rate, 0.2, 0.05);  // synthetic loss at its configured rate
  EXPECT_FALSE(has_measured_columns);  // measured columns are net-only
}

TEST(ExperimentTest, NetBackendMeasuresItsNetworkAndRoundTripsResults) {
  ScenarioSpec spec = registry_get("epidemic-net");
  const ExperimentResult result = Experiment(spec).run();
  EXPECT_TRUE(result.convergence.absorbed);
  ASSERT_TRUE(result.net_stats.has_value());
  EXPECT_GT(result.net_stats->rtt_samples, 0U);
  EXPECT_GT(result.net_stats->rtt_ms_mean(), 0.0);
  EXPECT_EQ(result.messages_sent, result.net_stats->datagrams_sent);

  // Measured columns join the job-metric vector.
  const auto metrics = detail::result_metrics(result);
  double rtt_ms_mean = 0.0;
  for (const auto& [name, value] : metrics) {
    if (name == "rtt_ms_mean") rtt_ms_mean = value;
  }
  EXPECT_GT(rtt_ms_mean, 0.0);

  // The "net" block survives the result JSON round trip.
  const ExperimentResult back =
      ExperimentResult::from_json(Json::parse(result.to_json().dump()));
  ASSERT_TRUE(back.net_stats.has_value());
  EXPECT_EQ(back.net_stats->datagrams_sent, result.net_stats->datagrams_sent);
  EXPECT_EQ(back.net_stats->rtt_samples, result.net_stats->rtt_samples);
  EXPECT_NEAR(back.net_stats->rtt_ms_mean(), result.net_stats->rtt_ms_mean(),
              1e-9);
  EXPECT_DOUBLE_EQ(back.net_stats->rtt_ms_max, result.net_stats->rtt_ms_max);
}

TEST(ExperimentTest, SimulatorValidationSurfacesAsSpecError) {
  // Bad spec values that only the simulator layer validates (seed counts
  // above n, failure fraction above 1) must come back as the facade's
  // documented SpecError, not raw std::invalid_argument.
  ScenarioSpec spec = registry_get("epidemic").scaled_to(100);
  spec.initial_counts = {99, 2};  // sums above n
  EXPECT_THROW((void)Experiment(spec).launch(), SpecError);

  ScenarioSpec bad_fraction = registry_get("epidemic").scaled_to(100);
  bad_fraction.faults.massive_failures.push_back(
      sim::MassiveFailure{5, 1.5});
  EXPECT_THROW((void)Experiment(bad_fraction).launch(), SpecError);
}

TEST(ExperimentTest, LaunchValidatesFaultPlansBuiltInCode) {
  // A spec built in code (or by a sweep axis) skips the parse-time check;
  // launch runs the same one, before the churn generator would loop for
  // 1e12 hours.
  ScenarioSpec spec = registry_get("endemic-churn").scaled_to(50);
  spec.faults.churn.hours = 1e12;
  try {
    (void)Experiment(spec).launch();
    ADD_FAILURE() << "launched with churn.hours = 1e12";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("faults.churn.hours"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExperimentTest, LaunchValidatesRuntimeBuiltInCode) {
  // The parse-time [0, 1] check on message_loss runs again at launch, so
  // a spec built in code cannot stand up a backend with loss 1.5.
  ScenarioSpec spec = registry_get("epidemic").scaled_to(50);
  spec.runtime.message_loss = 1.5;
  try {
    (void)Experiment(spec).launch();
    ADD_FAILURE() << "launched with runtime.message_loss = 1.5";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("runtime.message_loss"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExperimentTest, PerNodeBackendsRejectUnaddressableNBeforeAllocating) {
  // sim::ProcessId is 32 bits, so a per-node backend cannot address more
  // than 2^32 processes. The bound is checked before the group is built:
  // these sizes would otherwise ask for 10^10..10^20 bytes. Never test at
  // n = 2^32 itself, which is in bounds and would really allocate.
  for (const Backend backend : {Backend::Sync, Backend::Event}) {
    for (const std::size_t n :
         {(std::size_t{1} << 32) + 1, ~std::size_t{0}}) {
      ScenarioSpec spec = registry_get("epidemic");
      spec.initial_counts.clear();
      spec.n = n;
      spec.backend = backend;
      try {
        (void)Experiment(spec).launch();
        ADD_FAILURE() << backend_name(backend) << " accepted n = " << n;
      } catch (const SpecError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("n = " + std::to_string(n)), std::string::npos)
            << what;
        EXPECT_NE(what.find("backend count"), std::string::npos) << what;
      }
    }
  }
}

TEST(ExperimentTest, CountBackendRunsNBeyondTheProcessIdRange) {
  // The bound above is per-node only: the count backend keeps one counter
  // per state, so the size the per-node error points to really runs.
  ScenarioSpec spec = registry_get("epidemic");
  spec.initial_counts.clear();
  spec.n = (std::size_t{1} << 32) + 1;
  spec.backend = Backend::Count;
  spec.periods = 3;
  const ExperimentResult result = Experiment(spec).run();
  EXPECT_EQ(result.final_alive, spec.n);
}

TEST(ExperimentTest, EventBackendRunsCrashRecoveryPlans) {
  // PR 2 rejected these outright; the unified Simulator interface makes
  // every fault-plan field valid on the event backend too.
  ScenarioSpec spec = registry_get("epidemic-event").scaled_to(1000);
  spec.periods = 40;
  spec.faults.crash_recovery = CrashRecoverySpec{0.05, 2.0};
  const ExperimentResult result = Experiment(std::move(spec)).run();
  // Same steady-state reasoning as the sync crash-recovery test: with 5%
  // crashes/period and mean downtime ~3 periods, well under all-alive but
  // nowhere near drained.
  EXPECT_LT(result.final_alive, 1000U);
  EXPECT_GT(result.final_alive, 500U);
}

TEST(ExperimentTest, EventBackendRunsChurnPlans) {
  ScenarioSpec spec = registry_get("endemic-churn-event").scaled_to(400);
  spec.periods = 40;
  const ExperimentResult result = Experiment(std::move(spec)).run();
  bool population_moved = false;
  for (const PeriodPoint& point : result.series) {
    if (point.total_alive != 400U) population_moved = true;
  }
  EXPECT_TRUE(population_moved);
}

TEST(ExperimentTest, EventBackendAppliesMassiveFailureAtFractionalTime) {
  ScenarioSpec spec = registry_get("epidemic-event").scaled_to(800);
  spec.periods = 10;
  spec.faults.massive_failures.push_back(sim::MassiveFailure{3.5, 0.5});
  const ExperimentResult result = Experiment(std::move(spec)).run();
  EXPECT_EQ(result.series[2].total_alive, 800U);  // sample at t = 3
  EXPECT_EQ(result.series[3].total_alive, 400U);  // sample at t = 4
  EXPECT_EQ(result.final_alive, 400U);
}

TEST(ExperimentTest, CountBackendRunsAndGroupAccessIsSpecError) {
  ScenarioSpec spec = registry_get("epidemic").scaled_to(2000);
  spec.backend = Backend::Count;
  Experiment experiment(spec);
  ExperimentRun run = experiment.launch();
  // Per-node-identity features are a documented SpecError on the count
  // backend, not a raw std::logic_error from the sim layer.
  EXPECT_THROW((void)run.group(), SpecError);
  run.advance(spec.periods);
  const ExperimentResult result = run.finish();
  EXPECT_EQ(result.series.size(), spec.periods);
  EXPECT_EQ(result.final_alive, 2000U);
  EXPECT_EQ(result.convergence.dominant_state, 1U);  // y = infected
  EXPECT_TRUE(result.convergence.absorbed);
}

TEST(ExperimentTest, AutoBackendResolvesAtLaunch) {
  ScenarioSpec small = registry_get("epidemic").scaled_to(500);
  small.backend = Backend::Auto;
  Experiment small_exp(small);
  ExperimentRun small_run = small_exp.launch();
  EXPECT_TRUE(small_run.simulator().per_node());  // sync below crossover

  ScenarioSpec big =
      registry_get("epidemic").scaled_to(kAutoBackendCrossoverN);
  big.backend = Backend::Auto;
  Experiment big_exp(big);
  ExperimentRun big_run = big_exp.launch();
  EXPECT_FALSE(big_run.simulator().per_node());  // count at the crossover
}

TEST(ExperimentTest, ConvergenceSummaryFlagsAbsorption) {
  const ExperimentResult result =
      Experiment(registry_get("epidemic")).run();
  EXPECT_EQ(result.convergence.dominant_state, 1U);  // y = infected
  EXPECT_DOUBLE_EQ(result.convergence.dominant_fraction, 1.0);
  EXPECT_TRUE(result.convergence.absorbed);
  EXPECT_GE(result.convergence.settle_time, 0.0);
}

}  // namespace
}  // namespace deproto::api
