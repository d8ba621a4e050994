// ScenarioSpec and ExperimentResult serialization: spec -> JSON -> spec is
// the identity (field-for-field equality), for minimal specs, specs using
// every knob, and every registry entry; results survive a round trip too.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"

namespace deproto::api {
namespace {

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "kitchen-sink";
  spec.description = "every knob set off its default";
  spec.source.catalog = "endemic";
  spec.source.params = {4.0, 0.2, 0.05};
  spec.synthesis.p = 0.125;
  spec.synthesis.failure_rate = 0.1;
  spec.synthesis.allow_tokenizing = false;
  spec.synthesis.auto_rewrite = true;
  spec.synthesis.slack_name = "w";
  spec.synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
  spec.runtime.message_loss = 0.1;
  spec.runtime.tokens.mode = sim::TokenRouting::Mode::RandomWalkTtl;
  spec.runtime.tokens.ttl = 16;
  spec.runtime.simultaneous_updates = true;
  spec.n = 4321;
  spec.periods = 77;
  spec.seed = 987654321;
  spec.initial_counts = {4000, 300, 21};
  spec.faults.massive_failures = {sim::MassiveFailure{10, 0.5},
                                  sim::MassiveFailure{40, 0.25}};
  spec.faults.crash_recovery = CrashRecoverySpec{0.01, 5.0};
  spec.faults.churn.enabled = true;
  spec.faults.churn.hours = 12.0;
  spec.faults.churn.min_rate = 0.02;
  spec.faults.churn.max_rate = 0.2;
  spec.faults.churn.mean_downtime_hours = 0.25;
  spec.faults.churn.seed = 99;
  spec.faults.churn.periods_per_hour = 6.0;
  return spec;
}

TEST(SpecJsonTest, MinimalSpecRoundTrips) {
  ScenarioSpec spec;
  spec.source.ode_text = "x' = -x*y\ny' = x*y\n";
  const ScenarioSpec back = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
}

TEST(SpecJsonTest, FullSpecRoundTrips) {
  const ScenarioSpec spec = full_spec();
  const ScenarioSpec back = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  // And through actual text, compact and pretty.
  EXPECT_EQ(ScenarioSpec::from_json(Json::parse(spec.to_json().dump())),
            spec);
  EXPECT_EQ(ScenarioSpec::from_json(Json::parse(spec.to_json().dump(2))),
            spec);
}

TEST(SpecJsonTest, EventBackendSpecRoundTrips) {
  ScenarioSpec spec;
  spec.source.catalog = "epidemic";
  spec.backend = Backend::Event;
  spec.clock_drift = 0.12;
  spec.runtime.message_loss = 0.05;
  const ScenarioSpec back = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
}

TEST(SpecJsonTest, NetBackendSpecRoundTrips) {
  ScenarioSpec spec;
  spec.source.catalog = "epidemic";
  spec.backend = Backend::Net;
  spec.clock_drift = 0.08;
  spec.network.latency_min = 0.01;
  spec.network.latency_max = 0.2;
  spec.network.period_ms = 5.0;
  spec.network.probe_timeout = 0.75;
  const Json j = spec.to_json();
  // clock_drift applies to the net backend (drifting wall-clock timers),
  // so it serializes just as it does for event.
  EXPECT_TRUE(j.contains("clock_drift"));
  EXPECT_TRUE(j.contains("network"));
  EXPECT_EQ(ScenarioSpec::from_json(Json::parse(j.dump())), spec);
  EXPECT_STREQ(backend_name(Backend::Net), "net");
  EXPECT_EQ(backend_from_name("net"), Backend::Net);
}

TEST(SpecJsonTest, DefaultNetworkSpecStaysOffTheWire) {
  // Pre-net specs never carried a "network" key; a default NetworkSpec
  // must keep it that way so existing spec JSON (and the cache keys
  // derived from it) stay byte-identical.
  ScenarioSpec spec;
  spec.source.catalog = "epidemic";
  EXPECT_FALSE(spec.to_json().contains("network"));
  spec.backend = Backend::Event;
  spec.clock_drift = 0.12;
  EXPECT_FALSE(spec.to_json().contains("network"));
}

TEST(SpecJsonTest, RuntimeAndNetworkOptionsValidateAtParseTime) {
  // Bad physical-layer numbers are configuration errors, rejected when
  // the spec is parsed -- not hours later when a simulator constructor
  // finally sees them.
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"runtime":{"message_loss":-0.1}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"runtime":{"message_loss":1.5}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"network":{"latency_min":0.5,"latency_max":0.1}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"network":{"latency_min":-0.01}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(
                   Json::parse(R"({"network":{"period_ms":0}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(
                   Json::parse(R"({"network":{"probe_timeout":-1}})")),
               SpecError);
  // The boundary cases are legal: loss of 0 and 1 - epsilon, a
  // degenerate latency band.
  const ScenarioSpec ok = ScenarioSpec::from_json(Json::parse(
      R"({"runtime":{"message_loss":0.0},
          "network":{"latency_min":0.05,"latency_max":0.05}})"));
  EXPECT_DOUBLE_EQ(ok.network.latency_min, ok.network.latency_max);
}

TEST(SpecJsonTest, CountAndAutoBackendsRoundTrip) {
  for (const Backend backend : {Backend::Count, Backend::Auto}) {
    ScenarioSpec spec;
    spec.source.catalog = "epidemic";
    spec.backend = backend;
    EXPECT_EQ(ScenarioSpec::from_json(Json::parse(spec.to_json().dump())),
              spec);
  }
  EXPECT_STREQ(backend_name(Backend::Count), "count");
  EXPECT_STREQ(backend_name(Backend::Auto), "auto");
  EXPECT_EQ(backend_from_name("count"), Backend::Count);
  EXPECT_EQ(backend_from_name("auto"), Backend::Auto);
}

TEST(SpecJsonTest, AutoBackendResolvesByCrossoverN) {
  EXPECT_EQ(resolve_backend(Backend::Auto, kAutoBackendCrossoverN),
            Backend::Count);
  EXPECT_EQ(resolve_backend(Backend::Auto, kAutoBackendCrossoverN - 1),
            Backend::Sync);
  // Explicit backends pass through untouched at any N.
  EXPECT_EQ(resolve_backend(Backend::Sync, 1000000), Backend::Sync);
  EXPECT_EQ(resolve_backend(Backend::Event, 1000000), Backend::Event);
  EXPECT_EQ(resolve_backend(Backend::Count, 10), Backend::Count);
}

TEST(SpecJsonTest, EveryRegistryEntryRoundTrips) {
  for (const std::string& name : registry_names()) {
    const ScenarioSpec spec = registry_get(name);
    const ScenarioSpec back =
        ScenarioSpec::from_json(Json::parse(spec.to_json().dump(2)));
    EXPECT_EQ(back, spec) << name;
  }
}

TEST(SpecJsonTest, OmittedKeysMeanDefaults) {
  const ScenarioSpec spec = ScenarioSpec::from_json(
      Json::parse(R"({"source":{"catalog":"epidemic"}})"));
  EXPECT_EQ(spec, [] {
    ScenarioSpec def;
    def.source.catalog = "epidemic";
    return def;
  }());
}

TEST(SpecJsonTest, LegacyMassiveFailurePeriodKeyStillLoads) {
  // Specs saved before the unified Simulator interface wrote "period"
  // (whole periods); they must keep loading as fractional "time".
  const ScenarioSpec spec = ScenarioSpec::from_json(Json::parse(
      R"({"source":{"catalog":"epidemic"},
          "faults":{"massive_failures":[{"period":10,"fraction":0.5}]}})"));
  ASSERT_EQ(spec.faults.massive_failures.size(), 1U);
  EXPECT_DOUBLE_EQ(spec.faults.massive_failures[0].time, 10.0);
  EXPECT_DOUBLE_EQ(spec.faults.massive_failures[0].fraction, 0.5);
}

TEST(SpecJsonTest, BadShapesThrow) {
  EXPECT_THROW((void)backend_from_name("threads"), SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(
                   Json::parse(R"({"backend":"threads"})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"runtime":{"token_mode":"carrier-pigeon"}})")),
               SpecError);
}

TEST(SpecJsonTest, ClockDriftOutsideItsBandFailsNamingTheField) {
  // [0, 0.5) on every backend: sync and count ignore the drift, but a
  // spec that claims 0.7 is wrong wherever it runs.
  for (const char* text :
       {R"({"clock_drift":0.7})", R"({"clock_drift":0.5})",
        R"({"clock_drift":-0.01})",
        R"({"backend":"event","clock_drift":0.9})"}) {
    try {
      (void)ScenarioSpec::from_json(Json::parse(text));
      ADD_FAILURE() << "parsed " << text;
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("clock_drift"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(
      ScenarioSpec::from_json(Json::parse(R"({"clock_drift":0.0})"))
          .clock_drift,
      0.0);
  EXPECT_DOUBLE_EQ(
      ScenarioSpec::from_json(Json::parse(R"({"clock_drift":0.49})"))
          .clock_drift,
      0.49);
}

TEST(SpecJsonTest, NullNumericFieldsAreRejectedNotNaN) {
  // Result documents tolerate null metrics (they read back as NaN); spec
  // documents are inputs, where null/NaN is a configuration error --
  // e.g. a NaN clock_drift would sail past the negativity check, and a
  // null token_ttl would hit an undefined double -> unsigned cast.
  EXPECT_THROW((void)ScenarioSpec::from_json(
                   Json::parse(R"({"clock_drift":null})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"synthesis":{"failure_rate":null}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"source":{"catalog":"lv","params":[null]}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"faults":{"churn":{"min_rate":null}}})")),
               SpecError);
  EXPECT_THROW((void)ScenarioSpec::from_json(Json::parse(
                   R"({"runtime":{"token_ttl":null}})")),
               JsonError);  // integral read of null fails in the json layer
}

/// Parse `faults_json` as a spec's "faults" object; expect a SpecError
/// whose message names `field`.
void expect_fault_field_rejected(const std::string& faults_json,
                                 const std::string& field) {
  try {
    (void)ScenarioSpec::from_json(
        Json::parse(R"({"faults":)" + faults_json + "}"));
    ADD_FAILURE() << faults_json << " parsed";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(SpecJsonTest, ChurnHoursAreBounded) {
  // A trace is generated hour by hour: 1e12 hours would never finish.
  expect_fault_field_rejected(R"({"churn":{"hours":1e12}})",
                              "faults.churn.hours");
  expect_fault_field_rejected(R"({"churn":{"hours":-1}})",
                              "faults.churn.hours");
  EXPECT_NO_THROW((void)ScenarioSpec::from_json(Json::parse(
      R"({"faults":{"churn":{"hours":1e5}}})")));
}

TEST(SpecJsonTest, ChurnMinRateLiesInTheUnitInterval) {
  expect_fault_field_rejected(
      R"({"churn":{"min_rate":-0.5,"max_rate":-0.5}})",
      "faults.churn.min_rate");
}

TEST(SpecJsonTest, ChurnMaxRateLiesBetweenMinRateAndOne) {
  expect_fault_field_rejected(R"({"churn":{"min_rate":0.5,"max_rate":0.1}})",
                              "faults.churn.max_rate");
  expect_fault_field_rejected(R"({"churn":{"max_rate":1.5}})",
                              "faults.churn.max_rate");
}

TEST(SpecJsonTest, ChurnMeanDowntimeHoursIsPositive) {
  expect_fault_field_rejected(R"({"churn":{"mean_downtime_hours":-3}})",
                              "faults.churn.mean_downtime_hours");
  expect_fault_field_rejected(R"({"churn":{"mean_downtime_hours":0}})",
                              "faults.churn.mean_downtime_hours");
}

TEST(SpecJsonTest, ChurnPeriodsPerHourIsPositive) {
  expect_fault_field_rejected(R"({"churn":{"periods_per_hour":0}})",
                              "faults.churn.periods_per_hour");
}

TEST(SpecJsonTest, CrashProbLiesInTheUnitInterval) {
  // A negative probability used to pass as "disabled" and run no faults.
  expect_fault_field_rejected(R"({"crash_recovery":{"crash_prob":-0.5}})",
                              "faults.crash_recovery.crash_prob");
  expect_fault_field_rejected(R"({"crash_recovery":{"crash_prob":1.5}})",
                              "faults.crash_recovery.crash_prob");
}

TEST(SpecJsonTest, CrashMeanDowntimePeriodsIsNonNegative) {
  expect_fault_field_rejected(
      R"({"crash_recovery":{"crash_prob":0.1,"mean_downtime_periods":-1}})",
      "faults.crash_recovery.mean_downtime_periods");
  EXPECT_NO_THROW((void)ScenarioSpec::from_json(Json::parse(
      R"({"faults":{"crash_recovery":{"crash_prob":1,
                                      "mean_downtime_periods":0}}})")));
}

TEST(SpecJsonTest, MassiveFailureFractionLiesInTheUnitInterval) {
  expect_fault_field_rejected(
      R"({"massive_failures":[{"time":5,"fraction":1.5}]})",
      "faults.massive_failures.fraction");
}

TEST(SpecJsonTest, ResultRoundTrips) {
  ScenarioSpec spec = registry_get("epidemic");
  spec = spec.scaled_to(400);
  spec.periods = 12;
  Experiment experiment(spec);
  const ExperimentResult result = experiment.run();

  const ExperimentResult back =
      ExperimentResult::from_json(Json::parse(result.to_json().dump(2)));
  EXPECT_EQ(back.scenario, result.scenario);
  EXPECT_EQ(back.state_names, result.state_names);
  EXPECT_EQ(back.taxonomy.complete, result.taxonomy.complete);
  EXPECT_EQ(back.taxonomy.completely_partitionable,
            result.taxonomy.completely_partitionable);
  EXPECT_EQ(back.taxonomy.restricted_polynomial,
            result.taxonomy.restricted_polynomial);
  EXPECT_DOUBLE_EQ(back.p, result.p);
  EXPECT_EQ(back.mean_field_verified, result.mean_field_verified);
  EXPECT_EQ(back.notes, result.notes);
  EXPECT_EQ(back.machine_text, result.machine_text);
  EXPECT_EQ(back.initial_counts, result.initial_counts);
  ASSERT_EQ(back.series.size(), result.series.size());
  for (std::size_t t = 0; t < result.series.size(); ++t) {
    EXPECT_DOUBLE_EQ(back.series[t].time, result.series[t].time);
    EXPECT_EQ(back.series[t].counts, result.series[t].counts);
    EXPECT_EQ(back.series[t].total_alive, result.series[t].total_alive);
  }
  EXPECT_EQ(back.final_counts, result.final_counts);
  EXPECT_EQ(back.final_alive, result.final_alive);
  EXPECT_EQ(back.probes_total, result.probes_total);
  EXPECT_EQ(back.convergence, result.convergence);
}

TEST(SpecJsonTest, ScaledToRescalesInitialCounts) {
  const ScenarioSpec spec = registry_get("epidemic");  // {9999, 1} at 10000
  const ScenarioSpec small = spec.scaled_to(500);
  EXPECT_EQ(small.n, 500U);
  ASSERT_EQ(small.initial_counts.size(), 2U);
  EXPECT_EQ(small.initial_counts[1], 1U);  // nonzero stays nonzero
  EXPECT_LE(small.initial_counts[0] + small.initial_counts[1], 500U);
}

TEST(SpecJsonTest, ScaledToOvershootNeverEmptiesASeededState) {
  ScenarioSpec spec;
  spec.source.catalog = "lv";
  spec.n = 4;
  spec.initial_counts = {1, 1, 2};
  const ScenarioSpec half = spec.scaled_to(3);
  // llround pins each nonzero entry >= 1; the overshoot correction must
  // take from the entry that can spare it, not zero a pinned one.
  EXPECT_EQ(half.initial_counts, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(SpecJsonTest, ScaledToTopsUpRoundingUndershoot) {
  ScenarioSpec spec;
  spec.source.catalog = "lv";
  spec.n = 15;
  spec.initial_counts = {5, 5, 5};
  const ScenarioSpec up = spec.scaled_to(16);
  // Each entry rounds to 5 (sum 15); the missing process goes to a
  // largest entry instead of silently defaulting into state 0.
  std::size_t total = 0;
  for (const std::size_t c : up.initial_counts) total += c;
  EXPECT_EQ(total, 16U);
}

TEST(SpecJsonTest, ScaledToSizeMaxNeitherOverflowsNorSpins) {
  // 9999 * (2^64 / 10000) lies past 2^63: a signed rounding overflows and
  // a one-at-a-time fix-up would then run ~2^63 steps.
  const std::size_t big = std::numeric_limits<std::size_t>::max();
  const ScenarioSpec huge = registry_get("epidemic").scaled_to(big);
  EXPECT_EQ(huge.n, big);
  ASSERT_EQ(huge.initial_counts.size(), 2U);
  EXPECT_GT(huge.initial_counts[0], 0U);  // seeded states stay populated
  EXPECT_GT(huge.initial_counts[1], 0U);
  EXPECT_EQ(huge.initial_counts[0], big - huge.initial_counts[1]);
}

}  // namespace
}  // namespace deproto::api
