// SuiteRunner semantics: the worker pool preserves job-index ordering for
// every sink, aggregates match hand-computed statistics, job failures are
// captured without aborting the suite, the aggregated document is
// identical no matter how many threads executed the jobs, and a shared
// result cache composes with any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/suite_runner.hpp"
#include "api/sweep.hpp"

namespace deproto::api {
namespace {

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.name = "unit";
  sweep.base = registry_get("epidemic").scaled_to(300);
  sweep.base.periods = 6;
  sweep.axes.push_back(
      SweepAxis{"n", {Json::number(200), Json::number(300)}});
  sweep.replicates = 2;
  return sweep;
}

/// A hand-built job list of `count` single-replicate points that differ
/// only in seed -- the shape deproto-run --smoke hands to run_jobs.
std::vector<SweepJob> seed_jobs(std::size_t count) {
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioSpec spec = registry_get("epidemic").scaled_to(150);
    spec.periods = 4;
    spec.seed = 100 + i;
    spec.name = "job-" + std::to_string(i);
    SweepJob job;
    job.index = i;
    job.point = i;
    job.coords.emplace_back("seed", Json::number(spec.seed));
    job.spec = std::move(spec);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct RunOutput {
  SweepResult result;
  std::string json;   // deterministic to_json(false).dump(2)
  std::string jsonl;  // streaming sink
};

RunOutput run_jobs_with(SuiteOptions options, std::vector<SweepJob> jobs) {
  std::ostringstream jsonl;
  options.jsonl = &jsonl;
  RunOutput out;
  out.result = SuiteRunner(options).run_jobs(std::move(jobs), "unit-jobs");
  out.json = out.result.to_json(false).dump(2);
  out.jsonl = jsonl.str();
  return out;
}

/// A fresh, empty cache directory per test.
std::filesystem::path fresh_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "deproto-suite-test" /
      (std::string(info->test_suite_name()) + "." + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(AggregateTest, MatchesHandComputedStatistics) {
  const Aggregate a = Aggregate::of({2.0, 4.0, 6.0, 8.0});
  EXPECT_EQ(a.count, 4U);
  EXPECT_DOUBLE_EQ(a.mean, 5.0);
  EXPECT_DOUBLE_EQ(a.min, 2.0);
  EXPECT_DOUBLE_EQ(a.max, 8.0);
  // Population stddev: sqrt((9 + 1 + 1 + 9) / 4).
  EXPECT_DOUBLE_EQ(a.stddev, std::sqrt(5.0));

  const Aggregate empty = Aggregate::of({});
  EXPECT_EQ(empty.count, 0U);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);

  const Aggregate one = Aggregate::of({3.5});
  EXPECT_EQ(one.count, 1U);
  EXPECT_DOUBLE_EQ(one.mean, 3.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_EQ(Aggregate::from_json(one.to_json()), one);
}

TEST(SuiteRunnerTest, RunsEveryJobAndAggregatesPerPoint) {
  const SweepResult result = SuiteRunner().run(small_sweep());
  EXPECT_EQ(result.jobs_total, 4U);
  EXPECT_EQ(result.jobs_failed, 0U);
  ASSERT_EQ(result.jobs.size(), 4U);
  ASSERT_EQ(result.points.size(), 2U);
  for (const PointSummary& point : result.points) {
    EXPECT_EQ(point.replicates, 2U);
    const Aggregate* alive = point.metric("final_alive");
    ASSERT_NE(alive, nullptr);
    EXPECT_EQ(alive->count, 2U);
    EXPECT_NE(point.metric("settle_time"), nullptr);
    EXPECT_NE(point.metric("dominant_fraction"), nullptr);
    EXPECT_EQ(point.metric("no_such_metric"), nullptr);
    EXPECT_EQ(point.elapsed.count, 2U);
  }
  // No failures: both points aggregate the epidemic's absorption.
  EXPECT_DOUBLE_EQ(result.points[0].metric("final_alive")->mean, 200.0);
  EXPECT_DOUBLE_EQ(result.points[1].metric("final_alive")->mean, 300.0);
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_GT(result.jobs_per_second(), 0.0);
}

TEST(SuiteRunnerTest, OnResultFiresInJobIndexOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::size_t> seen;
    SuiteOptions options;
    options.threads = threads;
    options.on_result = [&seen](const JobOutcome& outcome) {
      seen.push_back(outcome.job.index);
    };
    const SweepResult result = SuiteRunner(options).run(small_sweep());
    EXPECT_EQ(result.threads, threads);
    ASSERT_EQ(seen.size(), 4U) << threads;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], i) << threads;
    }
  }
}

TEST(SuiteRunnerTest, ThreadCountNeverChangesAggregatedJsonOrJsonl) {
  std::ostringstream jsonl1, jsonl4;
  SuiteOptions one;
  one.threads = 1;
  one.jsonl = &jsonl1;
  SuiteOptions four;
  four.threads = 4;
  four.jsonl = &jsonl4;

  const SweepResult r1 = SuiteRunner(one).run(small_sweep());
  const SweepResult r4 = SuiteRunner(four).run(small_sweep());
  EXPECT_EQ(r1.to_json(false).dump(2), r4.to_json(false).dump(2));
  EXPECT_EQ(jsonl1.str(), jsonl4.str());
  EXPECT_FALSE(jsonl1.str().empty());
}

TEST(SuiteRunnerTest, MoreThreadsThanJobsIsFine) {
  SweepSpec sweep = small_sweep();
  sweep.axes.clear();
  sweep.replicates = 1;  // a single job
  SuiteOptions options;
  options.threads = 16;
  const SweepResult result = SuiteRunner(options).run(sweep);
  EXPECT_EQ(result.jobs_total, 1U);
  EXPECT_EQ(result.threads, 1U);  // clamped to the job count
  EXPECT_EQ(result.jobs_failed, 0U);
}

TEST(SuiteRunnerTest, JobFailuresAreCapturedNotFatal) {
  SweepSpec sweep = small_sweep();
  sweep.replicates = 1;
  // Point 0 (n=200) breaks at launch: more seeded states than machine
  // states. Point 1 stays valid.
  sweep.axes.clear();
  sweep.axes.push_back(
      SweepAxis{"periods", {Json::number(5), Json::number(6)}});
  sweep.base.initial_counts = {100, 100, 100};

  const SweepResult result = SuiteRunner().run(sweep);
  EXPECT_EQ(result.jobs_total, 2U);
  EXPECT_EQ(result.jobs_failed, 2U);
  for (const JobOutcome& outcome : result.jobs) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_FALSE(outcome.error.empty());
  }
  // Failed-only points report zero successful replicates, no metrics.
  ASSERT_EQ(result.points.size(), 2U);
  EXPECT_EQ(result.points[0].replicates, 0U);
  EXPECT_TRUE(result.points[0].metrics.empty());
  // The failures appear in the serialized document, and survive a parse
  // -> re-dump round trip byte-for-byte.
  const Json j = result.to_json(false);
  EXPECT_EQ(j.at("failures").size(), 2U);
  EXPECT_EQ(SweepResult::from_json(j).to_json(false).dump(2), j.dump(2));
}

TEST(SuiteRunnerTest, MixedFailureStillAggregatesTheHealthyPoint) {
  SweepSpec sweep;
  sweep.name = "mixed";
  sweep.base = registry_get("epidemic").scaled_to(200);
  sweep.base.periods = 5;
  SweepAxis axis;
  axis.field = "backend";
  axis.values.push_back(Json::string("sync"));
  axis.values.push_back(Json::string("no-such-backend"));
  // The bad value throws at expansion time -- so validate the expansion
  // error path too, then fix the axis and check partial failure capture
  // via a bad catalog id instead.
  sweep.axes.push_back(axis);
  EXPECT_THROW((void)SuiteRunner().run(sweep), SpecError);

  // Replicates share a spec, so one-bad-one-good needs two points: zip a
  // valid clock drift against one EventSimulator rejects at launch.
  sweep.axes.clear();
  sweep.replicates = 1;
  sweep.mode = SweepMode::Zip;
  SweepAxis seeds;
  seeds.field = "seed";
  seeds.values.push_back(Json::number(1));
  seeds.values.push_back(Json::number(2));
  sweep.axes.push_back(seeds);
  SweepAxis drift;
  drift.field = "clock_drift";
  drift.values.push_back(Json::number(0.05));
  drift.values.push_back(Json::number(-2.0));  // invalid at launch
  sweep.axes.push_back(drift);
  sweep.base.backend = Backend::Event;

  const SweepResult result = SuiteRunner().run(sweep);
  EXPECT_EQ(result.jobs_total, 2U);
  EXPECT_EQ(result.jobs_failed, 1U);
  EXPECT_TRUE(result.jobs[0].ok);
  EXPECT_FALSE(result.jobs[1].ok);
  EXPECT_EQ(result.points[0].replicates, 1U);
  EXPECT_EQ(result.points[1].replicates, 0U);
}

TEST(SuiteRunnerTest, StoreResultsOffDropsSeriesButKeepsAggregates) {
  SuiteOptions options;
  options.store_results = false;
  const SweepResult result = SuiteRunner(options).run(small_sweep());
  EXPECT_EQ(result.jobs_failed, 0U);
  for (const JobOutcome& outcome : result.jobs) {
    EXPECT_TRUE(outcome.ok);  // identity and status survive
    EXPECT_TRUE(outcome.result.series.empty());
  }
  EXPECT_EQ(result.points.size(), 2U);
  EXPECT_NE(result.points[0].metric("final_alive"), nullptr);
}

TEST(SweepResultTest, JsonRoundTripsDeterministicAndTimingForms) {
  const SweepResult result = SuiteRunner().run(small_sweep());

  const SweepResult deterministic =
      SweepResult::from_json(Json::parse(result.to_json(false).dump(2)));
  EXPECT_EQ(deterministic.sweep, result.sweep);
  EXPECT_EQ(deterministic.jobs_total, result.jobs_total);
  EXPECT_EQ(deterministic.jobs_failed, result.jobs_failed);
  ASSERT_EQ(deterministic.points.size(), result.points.size());
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    EXPECT_EQ(deterministic.points[p].point, result.points[p].point);
    EXPECT_EQ(deterministic.points[p].coords, result.points[p].coords);
    EXPECT_EQ(deterministic.points[p].metrics, result.points[p].metrics);
    // Timing is NOT in the deterministic form.
    EXPECT_EQ(deterministic.points[p].elapsed, Aggregate{});
  }
  EXPECT_DOUBLE_EQ(deterministic.elapsed_seconds, 0.0);

  const SweepResult timed =
      SweepResult::from_json(Json::parse(result.to_json(true).dump(2)));
  EXPECT_DOUBLE_EQ(timed.elapsed_seconds, result.elapsed_seconds);
  EXPECT_EQ(timed.threads, result.threads);
  EXPECT_EQ(timed.points[0].elapsed, result.points[0].elapsed);
}

TEST(SuiteRunnerTest, JsonlSinkFailureMarksTheRun) {
  // A full disk does not throw: ostream write failures are silent state.
  // This streambuf refuses every byte, the worst-case sink.
  class RefusingBuf : public std::streambuf {
   protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
  };
  RefusingBuf buf;
  std::ostream sink(&buf);

  SuiteOptions options;
  options.jsonl = &sink;
  const SweepResult result = SuiteRunner(options).run(small_sweep());
  // The jobs themselves succeeded; only the sink is bad -- and the run
  // says so instead of reporting a truncated file as success.
  EXPECT_EQ(result.jobs_failed, 0U);
  EXPECT_TRUE(result.jsonl_failed);
  // The mark survives serialization (both forms) and the round trip;
  // healthy documents carry no such key, so their bytes are unchanged.
  EXPECT_TRUE(result.to_json(false).get_or("jsonl_failed", false));
  EXPECT_TRUE(SweepResult::from_json(result.to_json(false)).jsonl_failed);
  const SweepResult healthy = SuiteRunner().run(small_sweep());
  EXPECT_FALSE(healthy.to_json(false).contains("jsonl_failed"));
}

TEST(SuiteRunnerTest, JsonlLinesAreOnePerJobInOrder) {
  std::ostringstream jsonl;
  SuiteOptions options;
  options.jsonl = &jsonl;
  const SweepResult result = SuiteRunner(options).run(small_sweep());
  (void)result;

  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const Json parsed = Json::parse(line);
    EXPECT_EQ(parsed.at("job").as_size(), count);
    EXPECT_TRUE(parsed.at("ok").as_bool());
    EXPECT_TRUE(parsed.contains("result"));
    // No timing in JSONL by default (byte-identical across threads).
    EXPECT_FALSE(parsed.at("result").contains("elapsed_seconds"));
    ++count;
  }
  EXPECT_EQ(count, 4U);
}

/// The SpecError message run_jobs throws for `jobs`; empty when none.
std::string run_jobs_error(const SuiteOptions& options,
                           std::vector<SweepJob> jobs) {
  try {
    (void)SuiteRunner(options).run_jobs(std::move(jobs), "bad");
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(SuiteRunnerTest, JobListContractViolationsAreSpecErrors) {
  std::vector<SweepJob> jobs = small_sweep().expand();
  ASSERT_EQ(jobs.size(), 4U);  // points 0, 0, 1, 1

  // A point revisited after a later one is rejected before any job runs.
  std::vector<SweepJob> shuffled = jobs;
  std::swap(shuffled[1], shuffled[2]);
  std::size_t ran = 0;
  SuiteOptions options;
  options.on_result = [&ran](const JobOutcome&) { ++ran; };
  EXPECT_NE(run_jobs_error(options, shuffled).find("point-contiguous"),
            std::string::npos);
  EXPECT_EQ(ran, 0U);

  // Replicates of one point whose machines differ (2 vs 3 states) cannot
  // share metric columns.
  std::vector<SweepJob> mixed = jobs;
  mixed[1].spec = registry_get("endemic").scaled_to(200);
  mixed[1].spec.periods = 6;
  EXPECT_NE(run_jobs_error(options, mixed).find("different metric sets"),
            std::string::npos);
}

TEST(SuiteRunnerTest, PoolMatchesSingleThreadedRunByteForByte) {
  SuiteOptions one;
  one.threads = 1;
  const RunOutput reference = run_jobs_with(one, seed_jobs(8));
  ASSERT_EQ(reference.result.jobs_failed, 0U);
  ASSERT_EQ(reference.result.points.size(), 8U);

  SuiteOptions four;
  four.threads = 4;
  const RunOutput pooled = run_jobs_with(four, seed_jobs(8));
  EXPECT_EQ(pooled.result.threads, 4U);
  EXPECT_EQ(pooled.result.jobs_failed, 0U);
  // Same document, same JSONL bytes, no matter which thread finished
  // which job when.
  EXPECT_EQ(pooled.json, reference.json);
  EXPECT_EQ(pooled.jsonl, reference.jsonl);
}

TEST(SuiteRunnerTest, StoredOutcomesMatchADirectExperimentRun) {
  SuiteOptions options;
  options.threads = 2;
  options.store_results = true;
  std::size_t on_result_calls = 0;
  options.on_result = [&on_result_calls](const JobOutcome& outcome) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_FALSE(outcome.cached);
    ++on_result_calls;
  };
  const RunOutput out = run_jobs_with(options, seed_jobs(4));
  EXPECT_EQ(on_result_calls, 4U);
  ASSERT_EQ(out.result.jobs.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    const JobOutcome& outcome = out.result.jobs[i];
    EXPECT_EQ(outcome.job.index, i);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_GT(outcome.elapsed_seconds, 0.0);
    // A job run on the pool is the canonical document a direct
    // in-process Experiment run produces.
    const ExperimentResult direct = Experiment(outcome.job.spec).run();
    EXPECT_EQ(outcome.result.to_json(false).dump(),
              direct.to_json(false).dump());
  }
}

TEST(SuiteRunnerTest, CacheStatsSumAcrossPoolThreads) {
  const std::filesystem::path dir = fresh_dir();
  ResultCache cache(dir);
  SuiteOptions options;
  options.threads = 3;
  options.cache = &cache;

  // Cold: every job misses and stores on some thread; the run's totals
  // count all of them, not one thread's share.
  const RunOutput cold = run_jobs_with(options, seed_jobs(6));
  EXPECT_EQ(cold.result.jobs_failed, 0U);
  EXPECT_TRUE(cold.result.cache_enabled);
  EXPECT_EQ(cold.result.cache.hits, 0U);
  EXPECT_EQ(cold.result.cache.misses, 6U);
  EXPECT_EQ(cold.result.cache.stores, 6U);

  // Warm, same handle: the run reports its own delta, not the handle's
  // lifetime totals, and replays byte-identically.
  const RunOutput warm = run_jobs_with(options, seed_jobs(6));
  EXPECT_EQ(warm.result.cache.hits, 6U);
  EXPECT_EQ(warm.result.cache.misses, 0U);
  EXPECT_EQ(warm.result.cache.stores, 0U);
  EXPECT_EQ(warm.json, cold.json);
  EXPECT_EQ(warm.jsonl, cold.jsonl);

  // A second handle on the directory, on one thread, is all hits too.
  ResultCache shared(dir);
  SuiteOptions single;
  single.threads = 1;
  single.cache = &shared;
  const RunOutput local = run_jobs_with(single, seed_jobs(6));
  EXPECT_EQ(local.result.cache.hits, 6U);
  EXPECT_EQ(local.json, cold.json);
  EXPECT_EQ(local.jsonl, cold.jsonl);
}

TEST(SuiteRunnerTest, CachedOutcomesAreFlaggedAndReplayByteIdentically) {
  ResultCache cache(fresh_dir());
  SuiteOptions options;
  options.threads = 2;
  options.cache = &cache;
  const RunOutput cold = run_jobs_with(options, seed_jobs(3));
  for (const JobOutcome& outcome : cold.result.jobs) {
    EXPECT_FALSE(outcome.cached);
  }

  std::vector<bool> seen_cached;
  options.on_result = [&seen_cached](const JobOutcome& outcome) {
    seen_cached.push_back(outcome.cached);
  };
  const RunOutput warm = run_jobs_with(options, seed_jobs(3));
  EXPECT_EQ(seen_cached, std::vector<bool>(3, true));
  ASSERT_EQ(warm.result.jobs.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(warm.result.jobs[i].cached);
    EXPECT_EQ(warm.result.jobs[i].result.to_json(false).dump(),
              cold.result.jobs[i].result.to_json(false).dump());
  }
}

TEST(SuiteRunnerTest, CacheCountersLiveInTimingJsonOnly) {
  ResultCache cache(fresh_dir());
  SuiteOptions options;
  options.threads = 2;
  options.cache = &cache;
  const RunOutput out = run_jobs_with(options, seed_jobs(4));

  // Deterministic form: no execution-environment accounting, or a warm
  // artifact could never equal a cold one.
  EXPECT_EQ(out.json.find("\"cache\""), std::string::npos);

  const Json timing = out.result.to_json(true);
  ASSERT_TRUE(timing.contains("cache"));
  EXPECT_EQ(timing.at("cache").at("misses").as_size(), 4U);
  EXPECT_EQ(timing.at("cache").at("stores").as_size(), 4U);

  // The timing form round-trips the counters.
  const SweepResult restored = SweepResult::from_json(timing);
  EXPECT_TRUE(restored.cache_enabled);
  EXPECT_EQ(restored.cache, out.result.cache);

  // Without a cache the timing form carries no cache block at all.
  const SweepResult uncached = SuiteRunner().run_jobs(seed_jobs(1), "plain");
  EXPECT_FALSE(uncached.to_json(true).contains("cache"));
}

TEST(SuiteRunnerTest, ZeroJobsCompletesWithEmptySinks) {
  SuiteOptions options;
  options.threads = 4;
  std::size_t calls = 0;
  options.on_result = [&calls](const JobOutcome&) { ++calls; };
  const RunOutput out = run_jobs_with(options, {});
  EXPECT_EQ(out.result.jobs_total, 0U);
  EXPECT_EQ(out.result.jobs_failed, 0U);
  EXPECT_TRUE(out.result.jobs.empty());
  EXPECT_TRUE(out.result.points.empty());
  EXPECT_EQ(out.result.threads, 1U);
  EXPECT_EQ(calls, 0U);
  EXPECT_TRUE(out.jsonl.empty());
}

TEST(SuiteRunnerTest, FailedJobLineCarriesErrorWithoutResult) {
  std::vector<SweepJob> jobs = seed_jobs(5);
  jobs[2].spec.backend = Backend::Event;
  jobs[2].spec.clock_drift = -2.0;  // rejected at launch

  SuiteOptions options;
  options.threads = 2;
  const RunOutput out = run_jobs_with(options, std::move(jobs));
  EXPECT_EQ(out.result.jobs_failed, 1U);
  ASSERT_EQ(out.result.jobs.size(), 5U);
  EXPECT_FALSE(out.result.jobs[2].ok);
  EXPECT_FALSE(out.result.jobs[2].error.empty());
  // A failed job does not poison the pool: every other job still runs.
  for (const std::size_t i : {0U, 1U, 3U, 4U}) {
    EXPECT_TRUE(out.result.jobs[i].ok) << i;
  }

  std::istringstream lines(out.jsonl);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const Json parsed = Json::parse(line);
    EXPECT_EQ(parsed.at("job").as_size(), count);
    if (count == 2) {
      EXPECT_FALSE(parsed.at("ok").as_bool());
      EXPECT_EQ(parsed.at("error").as_string(), out.result.jobs[2].error);
      EXPECT_FALSE(parsed.contains("result"));
    } else {
      EXPECT_TRUE(parsed.at("ok").as_bool());
      EXPECT_FALSE(parsed.contains("error"));
    }
    ++count;
  }
  EXPECT_EQ(count, 5U);
}

TEST(SuiteRunnerTest, ZeroThreadsMeansAtLeastOneWorker) {
  SuiteOptions options;
  options.threads = 0;  // hardware concurrency, clamped to the job count
  const SweepResult result = SuiteRunner(options).run_jobs(seed_jobs(2), "hw");
  EXPECT_GE(result.threads, 1U);
  EXPECT_LE(result.threads, 2U);
  EXPECT_EQ(result.jobs_failed, 0U);
}

}  // namespace
}  // namespace deproto::api
