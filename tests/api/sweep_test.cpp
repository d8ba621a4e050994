// SweepSpec semantics: axis application on every supported field, grid /
// zip expansion order and counts, deterministic replicate-seed derivation
// via sim::Rng splitting, and the JSON round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/suite_runner.hpp"
#include "api/sweep.hpp"

namespace deproto::api {
namespace {

ScenarioSpec small_base() {
  ScenarioSpec base = registry_get("epidemic").scaled_to(400);
  base.periods = 8;
  return base;
}

Json num(double v) { return Json::number(v); }

TEST(SweepSpecTest, GridExpandsAsNestedLoops) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.axes.push_back(SweepAxis{"n", {num(200), num(400)}});
  sweep.axes.push_back(SweepAxis{"periods", {num(4), num(6), num(8)}});

  EXPECT_EQ(sweep.point_count(), 6U);
  EXPECT_EQ(sweep.job_count(), 6U);
  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 6U);
  // First axis outermost: n=200 x {4,6,8}, then n=400 x {4,6,8}.
  EXPECT_EQ(jobs[0].spec.n, 200U);
  EXPECT_EQ(jobs[0].spec.periods, 4U);
  EXPECT_EQ(jobs[2].spec.n, 200U);
  EXPECT_EQ(jobs[2].spec.periods, 8U);
  EXPECT_EQ(jobs[3].spec.n, 400U);
  EXPECT_EQ(jobs[3].spec.periods, 4U);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].point, i);  // replicates == 1
    EXPECT_EQ(jobs[i].replicate, 0U);
    ASSERT_EQ(jobs[i].coords.size(), 2U);
    EXPECT_EQ(jobs[i].coords[0].first, "n");
    EXPECT_EQ(jobs[i].coords[1].first, "periods");
  }
}

TEST(SweepSpecTest, ZipWalksAxesInLockstep) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.mode = SweepMode::Zip;
  sweep.axes.push_back(SweepAxis{"n", {num(200), num(300)}});
  sweep.axes.push_back(SweepAxis{"seed", {num(7), num(11)}});

  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 2U);
  EXPECT_EQ(jobs[0].spec.n, 200U);
  EXPECT_EQ(jobs[0].spec.seed, 7U);
  EXPECT_EQ(jobs[1].spec.n, 300U);
  EXPECT_EQ(jobs[1].spec.seed, 11U);
}

TEST(SweepSpecTest, ZipRejectsMismatchedAxisLengths) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.mode = SweepMode::Zip;
  sweep.axes.push_back(SweepAxis{"n", {num(200), num(300)}});
  sweep.axes.push_back(SweepAxis{"seed", {num(7)}});
  EXPECT_THROW((void)sweep.point_count(), SpecError);
  EXPECT_THROW((void)sweep.expand(), SpecError);
}

TEST(SweepSpecTest, DuplicateAxisFieldsAreRejected) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.axes.push_back(SweepAxis{"n", {num(200)}});
  sweep.axes.push_back(SweepAxis{"periods", {num(4)}});
  sweep.axes.push_back(SweepAxis{"n", {num(300)}});  // double-apply slip
  EXPECT_THROW((void)sweep.point_count(), SpecError);
  EXPECT_THROW((void)sweep.expand(), SpecError);
}

TEST(SweepSpecTest, EmptyAxisAndZeroReplicatesAreErrors) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.axes.push_back(SweepAxis{"n", {}});
  EXPECT_THROW((void)sweep.expand(), SpecError);

  sweep.axes.clear();
  sweep.replicates = 0;
  EXPECT_THROW((void)sweep.job_count(), SpecError);
}

TEST(SweepSpecTest, OverflowingJobCountIsRejectedNamingReplicates) {
  // 4 points * 2^62 replicates wraps to 0 in 64 bits.
  SweepSpec sweep = sweep_registry_get("smoke-epidemic-scaling");
  ASSERT_EQ(sweep.point_count(), 4U);
  sweep.replicates = std::size_t{1} << 62;
  try {
    (void)sweep.job_count();
    FAIL() << "expected a SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("replicates"), std::string::npos)
        << e.what();
  }
  sweep.replicates = std::numeric_limits<std::size_t>::max() / 4;
  EXPECT_EQ(sweep.job_count(), sweep.replicates * 4);

  // 64 two-value grid axes: 2^64 points would wrap to 0 as well.
  SweepSpec wide;
  wide.base = small_base();
  for (int a = 0; a < 64; ++a) {
    wide.axes.push_back(
        SweepAxis{"axis" + std::to_string(a), {num(0), num(1)}});
  }
  EXPECT_THROW((void)wide.point_count(), SpecError);
  EXPECT_THROW((void)wide.job_count(), SpecError);
}

TEST(SweepSpecTest, NoAxesMeansOnePointOfReplicates) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.replicates = 3;
  EXPECT_EQ(sweep.point_count(), 1U);
  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 3U);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(jobs[r].point, 0U);
    EXPECT_EQ(jobs[r].replicate, r);
  }
}

TEST(SweepSpecTest, ReplicateSeedsAreSplitDerivedAndStable) {
  // Replicate 0 keeps the point seed so a one-replicate point reproduces
  // a direct Experiment run; later replicates are split-derived,
  // decorrelated, and a pure function of (seed, r).
  EXPECT_EQ(replicate_seed(2004, 0), 2004U);
  EXPECT_NE(replicate_seed(2004, 1), 2004U);
  EXPECT_NE(replicate_seed(2004, 1), replicate_seed(2004, 2));
  EXPECT_NE(replicate_seed(2004, 1), replicate_seed(2005, 1));
  EXPECT_EQ(replicate_seed(2004, 1), replicate_seed(2004, 1));

  SweepSpec sweep;
  sweep.base = small_base();
  sweep.replicates = 2;
  const std::vector<SweepJob> jobs = sweep.expand();
  EXPECT_EQ(jobs[0].spec.seed, sweep.base.seed);
  EXPECT_EQ(jobs[1].spec.seed, replicate_seed(sweep.base.seed, 1));
}

TEST(SweepSpecTest, ReplicateSeedsSurviveSpecJsonRoundTrips) {
  // Derived seeds must stay within JSON double exactness (<= 2^53): job
  // specs travel as JSON to cache keys and dispatch workers, and a seed
  // that rounds in transit would make an out-of-process worker simulate a
  // different replicate than the in-process engine.
  for (std::uint64_t base : {std::uint64_t{0}, std::uint64_t{2004},
                             std::uint64_t{0xdeadbeefcafeULL}}) {
    for (std::size_t r = 0; r < 8; ++r) {
      const std::uint64_t seed = replicate_seed(base, r);
      EXPECT_LE(seed, std::uint64_t{1} << 53) << base << " r" << r;
      ScenarioSpec spec = small_base();
      spec.seed = seed;
      EXPECT_EQ(ScenarioSpec::from_json(spec.to_json()).seed, seed)
          << base << " r" << r;
    }
  }
}

TEST(SweepSpecTest, NAxisRescalesInitialCounts) {
  SweepSpec sweep;
  sweep.base = small_base();  // 400 processes, counts {399, 1}
  sweep.axes.push_back(SweepAxis{"n", {num(200)}});
  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 1U);
  EXPECT_EQ(jobs[0].spec.n, 200U);
  // scaled_to keeps seeded states populated: one infective survives.
  ASSERT_EQ(jobs[0].spec.initial_counts.size(), 2U);
  EXPECT_EQ(jobs[0].spec.initial_counts[1], 1U);
  EXPECT_EQ(jobs[0].spec.initial_counts[0], 199U);
}

TEST(SweepSpecTest, AppliesEverySupportedFieldKind) {
  ScenarioSpec spec = registry_get("endemic-churn");
  spec.faults.massive_failures.push_back(sim::MassiveFailure{10.0, 0.25});
  spec.source.params = {4.0, 0.2, 0.05};

  apply_axis_value(spec, "periods", num(42));
  EXPECT_EQ(spec.periods, 42U);
  apply_axis_value(spec, "seed", num(9));
  EXPECT_EQ(spec.seed, 9U);
  apply_axis_value(spec, "backend", Json::string("event"));
  EXPECT_EQ(spec.backend, Backend::Event);
  apply_axis_value(spec, "clock_drift", num(0.1));
  EXPECT_DOUBLE_EQ(spec.clock_drift, 0.1);
  apply_axis_value(spec, "source.params[1]", num(0.3));
  EXPECT_DOUBLE_EQ(spec.source.params[1], 0.3);
  apply_axis_value(spec, "synthesis.p", num(0.02));
  ASSERT_TRUE(spec.synthesis.p.has_value());
  EXPECT_DOUBLE_EQ(*spec.synthesis.p, 0.02);
  apply_axis_value(spec, "synthesis.failure_rate", num(0.15));
  EXPECT_DOUBLE_EQ(spec.synthesis.failure_rate, 0.15);
  apply_axis_value(spec, "runtime.message_loss", num(0.05));
  EXPECT_DOUBLE_EQ(spec.runtime.message_loss, 0.05);
  apply_axis_value(spec, "runtime.token_ttl", num(4));
  EXPECT_EQ(spec.runtime.tokens.ttl, 4U);
  apply_axis_value(spec, "faults.massive_failures[0].time", num(5.5));
  EXPECT_DOUBLE_EQ(spec.faults.massive_failures[0].time, 5.5);
  apply_axis_value(spec, "faults.massive_failures[0].fraction", num(0.4));
  EXPECT_DOUBLE_EQ(spec.faults.massive_failures[0].fraction, 0.4);
  apply_axis_value(spec, "faults.crash_recovery.crash_prob", num(0.02));
  EXPECT_DOUBLE_EQ(spec.faults.crash_recovery.crash_prob, 0.02);
  apply_axis_value(spec, "faults.crash_recovery.mean_downtime_periods",
                   num(5));
  EXPECT_DOUBLE_EQ(spec.faults.crash_recovery.mean_downtime_periods, 5.0);
  apply_axis_value(spec, "faults.churn.enabled", Json::boolean(false));
  EXPECT_FALSE(spec.faults.churn.enabled);
  apply_axis_value(spec, "faults.churn.hours", num(12));
  EXPECT_DOUBLE_EQ(spec.faults.churn.hours, 12.0);
  apply_axis_value(spec, "faults.churn.min_rate", num(0.02));
  EXPECT_DOUBLE_EQ(spec.faults.churn.min_rate, 0.02);
  apply_axis_value(spec, "faults.churn.max_rate", num(0.3));
  EXPECT_DOUBLE_EQ(spec.faults.churn.max_rate, 0.3);
  apply_axis_value(spec, "faults.churn.mean_downtime_hours", num(1.5));
  EXPECT_DOUBLE_EQ(spec.faults.churn.mean_downtime_hours, 1.5);
  apply_axis_value(spec, "faults.churn.seed", num(77));
  EXPECT_EQ(spec.faults.churn.seed, 77U);
  apply_axis_value(spec, "faults.churn.periods_per_hour", num(6));
  EXPECT_DOUBLE_EQ(spec.faults.churn.periods_per_hour, 6.0);
}

TEST(SweepSpecTest, RejectsUnknownFieldsIndicesAndTypes) {
  ScenarioSpec spec = small_base();
  EXPECT_THROW(apply_axis_value(spec, "no.such.field", num(1)), SpecError);
  EXPECT_THROW(apply_axis_value(spec, "source.params[0]", num(1)),
               SpecError);  // base lists no params
  EXPECT_THROW(apply_axis_value(spec, "faults.massive_failures[0].time",
                                num(1)),
               SpecError);  // none scheduled
  EXPECT_THROW(apply_axis_value(spec, "faults.massive_failures[0].bogus",
                                num(1)),
               SpecError);
  EXPECT_THROW(apply_axis_value(spec, "source.params[x]", num(1)),
               SpecError);
  // Type mismatch surfaces as SpecError, not a bare JsonError.
  EXPECT_THROW(apply_axis_value(spec, "backend", num(3)), SpecError);
  EXPECT_THROW(apply_axis_value(spec, "n", Json::string("many")), SpecError);
  // null (NaN through as_number) and non-finite numbers would poison a
  // numeric field -- and alias distinct specs under one cache key, since
  // non-finite values all dump as null.
  EXPECT_THROW(apply_axis_value(spec, "clock_drift", Json::null()),
               SpecError);
  EXPECT_THROW(apply_axis_value(
                   spec, "clock_drift",
                   Json::number(std::numeric_limits<double>::infinity())),
               SpecError);
  EXPECT_THROW(apply_axis_value(
                   spec, "synthesis.p",
                   Json::number(std::numeric_limits<double>::quiet_NaN())),
               SpecError);
}

TEST(SweepSpecTest, OutOfRangeClockDriftAxisFailsItsJobNamingTheField) {
  // An axis writes clock_drift raw; the launch-time check turns the 0.7
  // point into a SpecError on the sync backend too, which ignores drift
  // and would otherwise run it silently.
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.axes.push_back(SweepAxis{"clock_drift", {num(0.1), num(0.7)}});
  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 2U);
  ASSERT_EQ(jobs[1].spec.backend, Backend::Sync);
  try {
    (void)Experiment(jobs[1].spec).launch();
    ADD_FAILURE() << "launched the clock_drift = 0.7 point";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("clock_drift"), std::string::npos)
        << e.what();
  }

  SuiteOptions options;
  options.threads = 1;
  options.store_results = false;
  const SweepResult result = SuiteRunner(options).run(sweep);
  EXPECT_EQ(result.jobs_failed, 1U);
  ASSERT_EQ(result.jobs.size(), 2U);
  EXPECT_TRUE(result.jobs[0].ok) << result.jobs[0].error;
  EXPECT_FALSE(result.jobs[1].ok);
  EXPECT_NE(result.jobs[1].error.find("clock_drift"), std::string::npos)
      << result.jobs[1].error;
}

TEST(SweepSpecTest, OutOfRangeLossAxisFailsItsJobNamingTheField) {
  // An axis writes runtime.message_loss raw; the launch-time check turns
  // the 1.5 point into a SpecError instead of a sync run with loss 1.5.
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.axes.push_back(
      SweepAxis{"runtime.message_loss", {num(0.1), num(1.5)}});
  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 2U);
  try {
    (void)Experiment(jobs[1].spec).launch();
    ADD_FAILURE() << "launched the runtime.message_loss = 1.5 point";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("runtime.message_loss"),
              std::string::npos)
        << e.what();
  }

  SuiteOptions options;
  options.threads = 1;
  options.store_results = false;
  const SweepResult result = SuiteRunner(options).run(sweep);
  EXPECT_EQ(result.jobs_failed, 1U);
  ASSERT_EQ(result.jobs.size(), 2U);
  EXPECT_TRUE(result.jobs[0].ok) << result.jobs[0].error;
  EXPECT_FALSE(result.jobs[1].ok);
  EXPECT_NE(result.jobs[1].error.find("runtime.message_loss"),
            std::string::npos)
      << result.jobs[1].error;
}

TEST(SweepSpecTest, JobNamesEncodeCoordinatesAndReplicate) {
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.axes.push_back(SweepAxis{"n", {num(200)}});
  sweep.replicates = 2;
  const std::vector<SweepJob> jobs = sweep.expand();
  ASSERT_EQ(jobs.size(), 2U);
  EXPECT_EQ(jobs[0].spec.name, "epidemic/n=200/r0");
  EXPECT_EQ(jobs[1].spec.name, "epidemic/n=200/r1");
}

TEST(SweepSpecTest, JsonRoundTrips) {
  SweepSpec sweep;
  sweep.name = "round-trip";
  sweep.description = "grid over n and backend";
  sweep.base = small_base();
  sweep.mode = SweepMode::Zip;
  sweep.axes.push_back(SweepAxis{"n", {num(200), num(400)}});
  {
    SweepAxis backend;
    backend.field = "backend";
    backend.values.push_back(Json::string("sync"));
    backend.values.push_back(Json::string("event"));
    sweep.axes.push_back(std::move(backend));
  }
  sweep.replicates = 4;

  EXPECT_EQ(SweepSpec::from_json(sweep.to_json()), sweep);
  EXPECT_EQ(SweepSpec::from_json(Json::parse(sweep.to_json().dump())),
            sweep);
  EXPECT_EQ(SweepSpec::from_json(Json::parse(sweep.to_json().dump(2))),
            sweep);
}

TEST(SweepSpecTest, FromJsonDefaults) {
  // A minimal document: defaults fill in grid mode and one replicate.
  const SweepSpec sweep = SweepSpec::from_json(Json::parse(
      R"({"base": {"source": {"catalog": "epidemic"}, "n": 100}})"));
  EXPECT_EQ(sweep.mode, SweepMode::Grid);
  EXPECT_EQ(sweep.replicates, 1U);
  EXPECT_TRUE(sweep.axes.empty());
  EXPECT_EQ(sweep.base.n, 100U);
  EXPECT_EQ(sweep.job_count(), 1U);
}

TEST(SweepSpecTest, SweepModeNamesRoundTrip) {
  EXPECT_EQ(sweep_mode_from_name("grid"), SweepMode::Grid);
  EXPECT_EQ(sweep_mode_from_name("zip"), SweepMode::Zip);
  EXPECT_THROW((void)sweep_mode_from_name("diagonal"), SpecError);
  EXPECT_STREQ(sweep_mode_name(SweepMode::Grid), "grid");
  EXPECT_STREQ(sweep_mode_name(SweepMode::Zip), "zip");
}

TEST(SweepSpecTest, AxisFieldCatalogIsNonEmptyAndStable) {
  const std::vector<std::string> fields = sweep_axis_fields();
  EXPECT_FALSE(fields.empty());
  // Spot-check the fields the registry presets rely on.
  EXPECT_NE(std::find(fields.begin(), fields.end(), "n"), fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "backend"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(),
                      "faults.churn.max_rate"),
            fields.end());
}

TEST(BisectAxisTest, FindsAMonotoneFlipToTolerance) {
  // Synthetic monotone predicate with a known flip at 0.37: bisection
  // must land within the requested tolerance of it.
  const double kFlip = 0.37;
  std::size_t calls = 0;
  const auto holds = [&](double v) {
    ++calls;
    return v < kFlip;
  };
  BisectOptions options;
  options.lo = 0.0;
  options.hi = 1.0;
  options.tolerance = 1e-4;
  const BisectResult result = bisect_axis(holds, options);
  EXPECT_TRUE(result.bracketed);
  EXPECT_NEAR(result.threshold, kFlip, 1e-4);
  // The final bracket straddles the flip; the reported threshold is its
  // midpoint (so it may sit within tolerance on either side of kFlip).
  EXPECT_LT(result.lo, kFlip);
  EXPECT_GE(result.hi, kFlip);
  EXPECT_LE(result.lo, result.threshold);
  EXPECT_GE(result.hi, result.threshold);
  EXPECT_EQ(result.evaluations, calls);
  // log2(1 / 1e-4) ~ 14 midpoints + 2 endpoint checks.
  EXPECT_LE(result.evaluations, 2U + 14U);
}

TEST(BisectAxisTest, OneSidedPredicatesReportTheSurvivingEndpoint) {
  const auto always = [](double) { return true; };
  const auto never = [](double) { return false; };
  BisectOptions options;
  options.lo = 2.0;
  options.hi = 5.0;
  const BisectResult held = bisect_axis(always, options);
  EXPECT_FALSE(held.bracketed);
  EXPECT_DOUBLE_EQ(held.threshold, 5.0);
  EXPECT_EQ(held.evaluations, 2U);
  const BisectResult failed = bisect_axis(never, options);
  EXPECT_FALSE(failed.bracketed);
  EXPECT_DOUBLE_EQ(failed.threshold, 2.0);
  EXPECT_EQ(failed.evaluations, 2U);
}

TEST(BisectAxisTest, MaxIterationsCapsTheSearch) {
  BisectOptions options;
  options.lo = 0.0;
  options.hi = 1.0;
  options.max_iterations = 3;
  const BisectResult result =
      bisect_axis([](double v) { return v < 0.37; }, options);
  EXPECT_TRUE(result.bracketed);
  EXPECT_EQ(result.evaluations, 2U + 3U);
  // Three halvings of [0, 1]: bracket width 1/8.
  EXPECT_DOUBLE_EQ(result.hi - result.lo, 0.125);
  EXPECT_NEAR(result.threshold, 0.37, 0.125);
}

TEST(BisectAxisTest, RejectsBadBounds) {
  const auto holds = [](double) { return true; };
  BisectOptions options;
  options.lo = 1.0;
  options.hi = 0.0;
  EXPECT_THROW((void)bisect_axis(holds, options), SpecError);
  options.lo = 0.0;
  options.hi = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)bisect_axis(holds, options), SpecError);
}

TEST(BisectAxisTest, ThresholdVariantDrivesRealExperiments) {
  // Bisect the message-loss axis for "does the epidemic still absorb in
  // 8 periods": loss 0 converges, loss ~1 cannot. The exact flip value
  // is noisy but the machinery -- axis application, experiment runs,
  // predicate evaluation -- must produce a bracketed answer in (0, 1).
  ScenarioSpec base = small_base();
  base.periods = 30;  // loss 0 must comfortably absorb at N = 400
  BisectOptions options;
  options.lo = 0.0;
  options.hi = 0.99;
  options.max_iterations = 4;
  const BisectResult result = bisect_axis_threshold(
      base, "runtime.message_loss",
      [](const ExperimentResult& r) { return r.convergence.absorbed; },
      options);
  EXPECT_TRUE(result.bracketed);
  EXPECT_GT(result.threshold, 0.0);
  EXPECT_LT(result.threshold, 0.99);
  EXPECT_EQ(result.evaluations, 2U + 4U);
}

/// A hand-built SweepResult point: `field` = value, absorbed mean as
/// given (count 3 replicates, like a real aggregate).
PointSummary grid_point(std::size_t index, const std::string& field,
                        double value, double absorbed_mean) {
  PointSummary point;
  point.point = index;
  point.coords.emplace_back(field, Json::number(value));
  Aggregate absorbed;
  absorbed.count = 3;
  absorbed.mean = absorbed_mean;
  point.metrics.emplace_back("absorbed", absorbed);
  return point;
}

TEST(BracketFromSweepTest, SeedsTheTightestBracketAroundTheFlip) {
  SweepResult result;
  result.points.push_back(grid_point(0, "runtime.message_loss", 0.0, 1.0));
  result.points.push_back(grid_point(1, "runtime.message_loss", 0.2, 1.0));
  result.points.push_back(
      grid_point(2, "runtime.message_loss", 0.4, 2.0 / 3.0));
  result.points.push_back(
      grid_point(3, "runtime.message_loss", 0.6, 1.0 / 3.0));
  result.points.push_back(grid_point(4, "runtime.message_loss", 0.8, 0.0));

  const std::optional<BisectOptions> bracket =
      bracket_from_sweep(result, "runtime.message_loss");
  ASSERT_TRUE(bracket.has_value());
  // Majority absorbed through 0.4, minority from 0.6: that pair is the
  // tightest bracket the grid supports.
  EXPECT_DOUBLE_EQ(bracket->lo, 0.4);
  EXPECT_DOUBLE_EQ(bracket->hi, 0.6);
}

TEST(BracketFromSweepTest, OneSidedGridsAndUnknownFieldsGiveNoBracket) {
  SweepResult all_hold;
  all_hold.points.push_back(grid_point(0, "runtime.message_loss", 0.0, 1.0));
  all_hold.points.push_back(grid_point(1, "runtime.message_loss", 0.5, 1.0));
  EXPECT_FALSE(
      bracket_from_sweep(all_hold, "runtime.message_loss").has_value());

  SweepResult all_fail;
  all_fail.points.push_back(grid_point(0, "runtime.message_loss", 0.0, 0.0));
  all_fail.points.push_back(grid_point(1, "runtime.message_loss", 0.5, 0.0));
  EXPECT_FALSE(
      bracket_from_sweep(all_fail, "runtime.message_loss").has_value());

  // Field that is not an axis of this grid.
  EXPECT_FALSE(bracket_from_sweep(all_hold, "clock_drift").has_value());

  // Non-numeric coordinates (a backend axis) never seed a bracket.
  SweepResult strings;
  PointSummary point;
  point.coords.emplace_back("backend", Json::string("sync"));
  Aggregate absorbed;
  absorbed.count = 1;
  absorbed.mean = 1.0;
  point.metrics.emplace_back("absorbed", absorbed);
  strings.points.push_back(point);
  EXPECT_FALSE(bracket_from_sweep(strings, "backend").has_value());
}

TEST(BracketFromSweepTest, NonMonotoneGridsRefuseToBracket) {
  // A failing point *below* a holding one (the verdict depends on some
  // other axis too): [max hold, min fail] would not bracket, so no seed.
  SweepResult result;
  result.points.push_back(grid_point(0, "runtime.message_loss", 0.1, 0.0));
  result.points.push_back(grid_point(1, "runtime.message_loss", 0.3, 1.0));
  result.points.push_back(grid_point(2, "runtime.message_loss", 0.5, 0.0));
  EXPECT_FALSE(
      bracket_from_sweep(result, "runtime.message_loss").has_value());
}

TEST(BracketFromSweepTest, CustomMetricAndThresholdApply) {
  SweepResult result;
  PointSummary low = grid_point(0, "n", 100.0, 0.0);
  Aggregate dominant;
  dominant.count = 2;
  dominant.mean = 0.95;
  low.metrics.emplace_back("dominant_fraction", dominant);
  PointSummary high = grid_point(1, "n", 200.0, 0.0);
  dominant.mean = 0.55;
  high.metrics.emplace_back("dominant_fraction", dominant);
  result.points.push_back(low);
  result.points.push_back(high);

  const std::optional<BisectOptions> bracket =
      bracket_from_sweep(result, "n", "dominant_fraction", 0.9);
  ASSERT_TRUE(bracket.has_value());
  EXPECT_DOUBLE_EQ(bracket->lo, 100.0);
  EXPECT_DOUBLE_EQ(bracket->hi, 200.0);
}

TEST(BracketFromSweepTest, SeededBracketRefinesARealSweep) {
  // End to end: run a tiny message-loss grid through SuiteRunner, seed
  // the bracket from its aggregates, and hand it to
  // bisect_axis_threshold -- the --sweep --bisect path in API form.
  SweepSpec sweep;
  sweep.base = small_base();
  sweep.base.periods = 30;
  sweep.axes.push_back(
      SweepAxis{"runtime.message_loss",
                {num(0.0), num(0.5), num(0.9), num(0.99)}});
  SuiteOptions options;
  options.threads = 1;
  options.store_results = false;
  const SweepResult grid = SuiteRunner(options).run(sweep);
  ASSERT_EQ(grid.jobs_failed, 0U);

  const std::optional<BisectOptions> seeded =
      bracket_from_sweep(grid, "runtime.message_loss");
  ASSERT_TRUE(seeded.has_value()) << "loss 0 absorbs, loss 0.99 cannot";
  EXPECT_LT(seeded->lo, seeded->hi);

  BisectOptions bisect = *seeded;
  bisect.max_iterations = 3;
  const BisectResult refined = bisect_axis_threshold(
      sweep.base, "runtime.message_loss",
      [](const ExperimentResult& r) { return r.convergence.absorbed; },
      bisect);
  EXPECT_TRUE(refined.bracketed)
      << "the grid-certified bracket must hold under re-evaluation";
  EXPECT_GE(refined.threshold, seeded->lo);
  EXPECT_LE(refined.threshold, seeded->hi);
}

}  // namespace
}  // namespace deproto::api
