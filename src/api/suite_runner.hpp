#pragma once

// SuiteRunner: the parallel, deterministic execution engine behind
// SweepSpec. A sweep expands into a flat job list; a std::thread worker
// pool drains it through an atomic job counter, each job running its own
// api::Experiment (independent RNG state, no shared mutable state in the
// library). Results are reported strictly in job-index order -- the JSONL
// sink, the on_result callback, and every aggregate are byte-identical
// whether the suite ran on 1 thread or 16.
//
//   SweepSpec sweep = sweep_registry_get("fig11-convergence-vs-n");
//   SuiteOptions options;
//   options.threads = 8;
//   const SweepResult result = SuiteRunner(options).run(sweep);
//   std::ofstream("sweep.json") << result.to_json(false).dump(2);
//
// to_json(true) adds a "timing" section (wall-clock, threads, jobs/sec);
// to_json(false) is the canonical deterministic form the regression tests
// compare across thread counts.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.hpp"
#include "api/result_cache.hpp"
#include "api/sweep.hpp"

namespace deproto::api {

/// Mean / population stddev / min / max over the replicates of one sweep
/// point. count == 0 (all replicates failed) leaves every statistic 0.
struct Aggregate {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] static Aggregate of(const std::vector<double>& values);

  [[nodiscard]] Json to_json() const;
  static Aggregate from_json(const Json& j);

  friend bool operator==(const Aggregate&, const Aggregate&) = default;
};

/// Per-point aggregation across replicates. `metrics` holds a fixed,
/// deterministic key set (see suite_runner.cpp): convergence time
/// ("settle_time"), steady-state fractions ("dominant_fraction" and
/// "final_fraction_<state>"), population ("final_alive"), and token /
/// probe / message totals. Wall-clock lives in `elapsed`, separate from
/// `metrics`, so the deterministic serialization never contains timing.
struct PointSummary {
  std::size_t point = 0;
  SweepCoords coords;
  std::size_t replicates = 0;  // that ran successfully
  std::vector<std::pair<std::string, Aggregate>> metrics;
  Aggregate elapsed;  // seconds per replicate (timing; not deterministic)

  /// Lookup by metric name; nullptr when absent.
  [[nodiscard]] const Aggregate* metric(const std::string& name) const;

  friend bool operator==(const PointSummary&, const PointSummary&) = default;
};

/// One executed job: the expanded SweepJob plus its outcome. A throwing
/// job (SpecError, SynthesisError, ...) is captured as `error` and does
/// not abort the suite.
struct JobOutcome {
  SweepJob job;
  bool ok = false;
  std::string error;
  ExperimentResult result;  // valid when ok
  double elapsed_seconds = 0.0;
  /// Replayed from SuiteOptions::cache instead of executed. Cached and
  /// fresh outcomes are indistinguishable to every sink's deterministic
  /// form; the flag only feeds counters and timing-form diagnostics.
  bool cached = false;
};

struct SweepResult {
  std::string sweep;
  std::size_t jobs_total = 0;
  std::size_t jobs_failed = 0;
  /// Every outcome, by job index. When SuiteOptions::store_results is
  /// false the heavy ExperimentResults are dropped after aggregation and
  /// each entry keeps only job identity, ok/error, and timing.
  std::vector<JobOutcome> jobs;
  std::vector<PointSummary> points;
  double elapsed_seconds = 0.0;  // whole-suite wall clock
  std::size_t threads = 1;
  /// Cache accounting for this run (all zero unless cache_enabled). Like
  /// timing, it is environment state -- a warm rerun hits where the cold
  /// run missed -- so it serializes under the "timing" form only and the
  /// deterministic to_json(false) stays byte-identical warm vs cold.
  bool cache_enabled = false;
  CacheStats cache;
  /// The JSONL sink reported a write failure (disk full, closed stream):
  /// the file on disk is truncated and must not be trusted. SuiteRunner
  /// flushes the sink before returning so buffered failures surface here
  /// too; the CLI turns this into a nonzero exit status.
  bool jsonl_failed = false;

  [[nodiscard]] double jobs_per_second() const;

  /// Serializes name, totals, per-point aggregates, and failures; per-job
  /// ExperimentResults stream through the JSONL sink instead. With
  /// include_timing, adds a "timing" object (suite wall-clock, threads,
  /// jobs/sec, per-point elapsed aggregates); without it the document is
  /// byte-identical across thread counts and repeated runs. from_json
  /// restores everything serialized (failed outcomes keep identity +
  /// error only), so parse -> re-dump is idempotent.
  [[nodiscard]] Json to_json(bool include_timing = true) const;
  static SweepResult from_json(const Json& j);
};

struct SuiteOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (at
  /// least 1). The thread count never changes results, only wall-clock.
  std::size_t threads = 0;
  /// Keep each job's full ExperimentResult in SweepResult::jobs. Turn off
  /// for long sweeps and stream through `jsonl` instead.
  bool store_results = true;
  /// Streaming sink: one compact JSON line per job, written in job-index
  /// order as the completed prefix grows. Byte-identical across thread
  /// counts (lines carry no timing).
  std::ostream* jsonl = nullptr;
  /// Progress hook, invoked in job-index order (never concurrently).
  std::function<void(const JobOutcome&)> on_result;
  /// Optional result memoization (non-owning; must outlive the run):
  /// lookup-before-execute, write-through-after. Hits skip the simulation
  /// entirely; every sink sees cached and fresh results identically.
  ResultCache* cache = nullptr;
};

class SuiteRunner {
 public:
  explicit SuiteRunner(SuiteOptions options = {});

  /// Expand and execute a sweep. Throws SpecError on expansion errors;
  /// per-job execution errors are captured in the outcomes.
  [[nodiscard]] SweepResult run(const SweepSpec& sweep) const;

  /// Execute a pre-built job list (e.g. deproto-run --smoke's scenario x
  /// backend matrix) under the same engine and ordering contract.
  /// Preconditions (SweepSpec::expand() satisfies both; hand-built lists
  /// must too, and violations throw SpecError): jobs sharing a point id
  /// are contiguous with non-decreasing ids, and produce results of the
  /// same shape (same machine/state set) so replicate metrics align.
  [[nodiscard]] SweepResult run_jobs(std::vector<SweepJob> jobs,
                                     const std::string& suite_name) const;

 private:
  SuiteOptions options_;
};

}  // namespace deproto::api
