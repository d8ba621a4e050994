#include "api/suite_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "api/job_metrics.hpp"

namespace deproto::api {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Json coords_to_json(const SweepCoords& coords) {
  Json j = Json::object();
  for (const auto& [field, value] : coords) j.set(field, value);
  return j;
}

SweepCoords coords_from_json(const Json& j) {
  SweepCoords coords;
  for (const auto& [field, value] : j.items()) {
    coords.emplace_back(field, value);
  }
  return coords;
}

/// One JSONL line for `outcome`: job identity, coords, and the result
/// (or the error). Lines carry no timing and no cache provenance, which
/// are environment state, so they are byte-identical across thread counts
/// and warm or cold caches.
Json jsonl_line(const JobOutcome& outcome) {
  Json line = Json::object();
  line.set("job", Json::number(outcome.job.index));
  line.set("point", Json::number(outcome.job.point));
  line.set("replicate", Json::number(outcome.job.replicate));
  line.set("scenario", Json::string(outcome.job.spec.name));
  line.set("coords", coords_to_json(outcome.job.coords));
  line.set("ok", Json::boolean(outcome.ok));
  if (outcome.ok) {
    line.set("result", outcome.result.to_json(/*include_timing=*/false));
  } else {
    line.set("error", Json::string(outcome.error));
  }
  return line;
}

/// Folds outcomes into out.points and out.jobs_failed. Fed in job-index
/// order, so the floating-point folds are independent of the execution
/// interleaving; holds only the current point's replicate columns, so a
/// sweep's metric vectors cost O(replicates), not O(jobs). Requires a
/// point-contiguous job list (run_jobs checks it up front).
class PointFolder {
 public:
  explicit PointFolder(SweepResult& out) : out_(out) {}
  PointFolder(const PointFolder&) = delete;
  PointFolder& operator=(const PointFolder&) = delete;

  void add(const JobOutcome& outcome) {
    if (!outcome.ok) ++out_.jobs_failed;
    if (out_.points.empty() || out_.points.back().point != outcome.job.point) {
      finish_point();
      PointSummary point;
      point.point = outcome.job.point;
      point.coords = outcome.job.coords;
      out_.points.push_back(std::move(point));
    }
    elapsed_.push_back(outcome.elapsed_seconds);
    if (!outcome.ok) return;
    ++out_.points.back().replicates;
    const auto metrics = detail::result_metrics(outcome.result);
    if (columns_.empty()) {
      for (const auto& [name, value] : metrics) {
        columns_.emplace_back(name, std::vector<double>{value});
      }
    } else if (metrics.size() != columns_.size()) {
      if (error_.empty()) {
        error_ = "run_jobs: jobs sharing point " +
                 std::to_string(outcome.job.point) +
                 " produced different metric sets (specs within a point "
                 "must have the same shape)";
      }
    } else {
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        columns_[m].second.push_back(metrics[m].second);
      }
    }
  }

  /// Closes the last point. Throws SpecError when the jobs of a point
  /// produced different metric sets (recorded, not thrown, by add(), which
  /// runs on the pool's threads).
  void finish() {
    finish_point();
    if (!error_.empty()) throw SpecError(error_);
  }

 private:
  void finish_point() {
    if (out_.points.empty()) return;
    PointSummary& point = out_.points.back();
    for (auto& [name, values] : columns_) {
      point.metrics.emplace_back(name, Aggregate::of(values));
    }
    point.elapsed = Aggregate::of(elapsed_);
    columns_.clear();
    elapsed_.clear();
  }

  SweepResult& out_;
  std::vector<std::pair<std::string, std::vector<double>>> columns_;
  std::vector<double> elapsed_;
  std::string error_;
};

}  // namespace

Aggregate Aggregate::of(const std::vector<double>& values) {
  Aggregate a;
  a.count = values.size();
  if (values.empty()) return a;
  a.min = values.front();
  a.max = values.front();
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
  }
  a.mean = sum / static_cast<double>(a.count);
  double sq = 0.0;
  for (const double v : values) sq += (v - a.mean) * (v - a.mean);
  a.stddev = std::sqrt(sq / static_cast<double>(a.count));
  return a;
}

Json Aggregate::to_json() const {
  return Json::object()
      .set("count", Json::number(count))
      .set("mean", Json::number(mean))
      .set("stddev", Json::number(stddev))
      .set("min", Json::number(min))
      .set("max", Json::number(max));
}

Aggregate Aggregate::from_json(const Json& j) {
  Aggregate a;
  a.count = j.at("count").as_size();
  a.mean = j.get_or("mean", 0.0);
  a.stddev = j.get_or("stddev", 0.0);
  a.min = j.get_or("min", 0.0);
  a.max = j.get_or("max", 0.0);
  return a;
}

const Aggregate* PointSummary::metric(const std::string& name) const {
  for (const auto& [key, aggregate] : metrics) {
    if (key == name) return &aggregate;
  }
  return nullptr;
}

double SweepResult::jobs_per_second() const {
  return elapsed_seconds > 0.0
             ? static_cast<double>(jobs_total) / elapsed_seconds
             : 0.0;
}

Json SweepResult::to_json(bool include_timing) const {
  Json j = Json::object();
  if (!sweep.empty()) j.set("sweep", Json::string(sweep));
  j.set("jobs_total", Json::number(jobs_total));
  j.set("jobs_failed", Json::number(jobs_failed));
  Json point_arr = Json::array();
  for (const PointSummary& point : points) {
    Json p = Json::object();
    p.set("point", Json::number(point.point));
    p.set("coords", coords_to_json(point.coords));
    p.set("replicates", Json::number(point.replicates));
    Json metrics = Json::object();
    for (const auto& [name, aggregate] : point.metrics) {
      metrics.set(name, aggregate.to_json());
    }
    p.set("metrics", std::move(metrics));
    point_arr.push(std::move(p));
  }
  j.set("points", std::move(point_arr));
  Json failures = Json::array();
  for (const JobOutcome& outcome : jobs) {
    if (outcome.ok || outcome.error.empty()) continue;
    failures.push(Json::object()
                      .set("job", Json::number(outcome.job.index))
                      .set("scenario", Json::string(outcome.job.spec.name))
                      .set("error", Json::string(outcome.error)));
  }
  j.set("failures", std::move(failures));
  // A truncated JSONL sink marks the run as bad in both forms (a document
  // produced by a failed run should never compare equal to a clean one);
  // the key is absent on healthy runs so their bytes are unchanged.
  if (jsonl_failed) j.set("jsonl_failed", Json::boolean(true));
  if (include_timing) {
    Json timing = Json::object();
    timing.set("elapsed_seconds", Json::number(elapsed_seconds));
    timing.set("threads", Json::number(threads));
    timing.set("jobs_per_second", Json::number(jobs_per_second()));
    Json per_point = Json::array();
    for (const PointSummary& point : points) {
      per_point.push(point.elapsed.to_json());
    }
    timing.set("point_elapsed", std::move(per_point));
    j.set("timing", std::move(timing));
    if (cache_enabled) {
      // Hit/miss accounting rides with timing: both describe how this
      // run executed, not what it computed.
      j.set("cache", Json::object()
                         .set("hits", Json::number(cache.hits))
                         .set("misses", Json::number(cache.misses))
                         .set("corrupt", Json::number(cache.corrupt))
                         .set("stores", Json::number(cache.stores))
                         .set("skipped", Json::number(cache.skipped)));
    }
  }
  return j;
}

SweepResult SweepResult::from_json(const Json& j) {
  SweepResult r;
  r.sweep = j.get_or("sweep", std::string());
  r.jobs_total = j.at("jobs_total").as_size();
  r.jobs_failed = j.at("jobs_failed").as_size();
  for (const Json& e : j.at("points").elements()) {
    PointSummary point;
    point.point = e.at("point").as_size();
    point.coords = coords_from_json(e.at("coords"));
    point.replicates = e.at("replicates").as_size();
    for (const auto& [name, aggregate] : e.at("metrics").items()) {
      point.metrics.emplace_back(name, Aggregate::from_json(aggregate));
    }
    r.points.push_back(std::move(point));
  }
  if (j.contains("failures")) {
    // Reconstruct the failed outcomes (identity + error only) so parsing
    // and re-dumping a document with failures is idempotent.
    for (const Json& e : j.at("failures").elements()) {
      JobOutcome outcome;
      outcome.job.index = e.at("job").as_size();
      outcome.job.spec.name = e.get_or("scenario", std::string());
      outcome.error = e.get_or("error", std::string());
      r.jobs.push_back(std::move(outcome));
    }
  }
  r.jsonl_failed = j.get_or("jsonl_failed", false);
  if (j.contains("timing")) {
    const Json& timing = j.at("timing");
    r.elapsed_seconds = timing.get_or("elapsed_seconds", 0.0);
    r.threads = timing.contains("threads") ? timing.at("threads").as_size()
                                           : r.threads;
    if (timing.contains("point_elapsed")) {
      const Json::Array& elapsed = timing.at("point_elapsed").elements();
      for (std::size_t p = 0; p < elapsed.size() && p < r.points.size();
           ++p) {
        r.points[p].elapsed = Aggregate::from_json(elapsed[p]);
      }
    }
  }
  if (j.contains("cache")) {
    const Json& cache = j.at("cache");
    r.cache_enabled = true;
    r.cache.hits = cache.at("hits").as_size();
    r.cache.misses = cache.at("misses").as_size();
    r.cache.corrupt =
        cache.contains("corrupt") ? cache.at("corrupt").as_size() : 0;
    r.cache.stores =
        cache.contains("stores") ? cache.at("stores").as_size() : 0;
    r.cache.skipped =
        cache.contains("skipped") ? cache.at("skipped").as_size() : 0;
  }
  return r;
}

SuiteRunner::SuiteRunner(SuiteOptions options)
    : options_(std::move(options)) {}

SweepResult SuiteRunner::run(const SweepSpec& sweep) const {
  return run_jobs(sweep.expand(),
                  sweep.name.empty() ? sweep.base.name : sweep.name);
}

SweepResult SuiteRunner::run_jobs(std::vector<SweepJob> jobs,
                                  const std::string& suite_name) const {
  const auto suite_start = std::chrono::steady_clock::now();
  // The point-contiguity precondition (see the header) is enforced, not
  // assumed: a shuffled job list would otherwise split points into
  // duplicate summaries.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    if (jobs[i].point < jobs[i - 1].point) {
      throw SpecError("run_jobs: job list must be point-contiguous (job " +
                      std::to_string(i) + " revisits point " +
                      std::to_string(jobs[i].point) + ")");
    }
  }

  std::size_t n_threads = options_.threads;
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  n_threads = std::max<std::size_t>(1, std::min(n_threads, jobs.size()));

  SweepResult out;
  out.sweep = suite_name;
  out.jobs_total = jobs.size();
  out.threads = n_threads;
  out.cache_enabled = options_.cache != nullptr;
  out.jobs.resize(jobs.size());
  // The cache instance may outlive this run (warm reruns reuse it), so
  // the per-run accounting is a delta against its lifetime counters.
  const CacheStats cache_before =
      options_.cache != nullptr ? options_.cache->stats() : CacheStats{};

  // The engine: an atomic counter hands out job indices; completed
  // outcomes land in a slot vector; whichever worker extends the
  // completed prefix flushes it, so the JSONL sink and on_result hook
  // observe strict job-index order no matter which thread finished what.
  // The flush also folds each outcome into its point's aggregates before
  // it can drop the heavy per-period series (store_results == false
  // streams at O(metrics) per job, not O(series)).
  PointFolder folder(out);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<char> done(jobs.size(), 0);
  std::size_t flushed = 0;
  bool flushing = false;

  // At most one thread flushes at a time, and sink I/O (JSONL
  // serialization, the on_result hook) happens with the lock RELEASED --
  // workers finishing short jobs never queue behind a slow sink. The
  // active flusher re-checks the prefix after every item, so entries
  // marked done while it was writing are picked up before it retires.
  auto flush_prefix = [&](std::unique_lock<std::mutex>& lock) {
    if (flushing) return;
    flushing = true;
    while (flushed < out.jobs.size() && done[flushed]) {
      JobOutcome& outcome = out.jobs[flushed];
      ++flushed;
      lock.unlock();  // the flushed slot is stable; only this thread
                      // touches it now
      bool sink_failed = false;
      if (options_.jsonl != nullptr) {
        *options_.jsonl << jsonl_line(outcome).dump() << '\n';
        // A full disk fails silently otherwise: the stream swallows the
        // short write and the run would report success over a truncated
        // file. Checked per line so the failure is caught while the run
        // can still surface it, not after the ofstream is gone.
        sink_failed = !options_.jsonl->good();
      }
      if (options_.on_result) options_.on_result(outcome);
      folder.add(outcome);
      if (!options_.store_results) outcome.result = ExperimentResult{};
      lock.lock();
      if (sink_failed) out.jsonl_failed = true;
    }
    flushing = false;
  };

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      JobOutcome outcome;
      outcome.job = std::move(jobs[i]);
      const auto job_start = std::chrono::steady_clock::now();
      try {
        // Lookup-before-execute: a hit replays the memoized result and
        // runs zero simulation; a miss executes and writes through, so
        // the next run of the same spec (any thread count, any axis
        // reordering that preserves the spec) hits.
        if (options_.cache != nullptr) {
          if (std::optional<ExperimentResult> cached =
                  options_.cache->load(outcome.job.spec)) {
            outcome.result = std::move(*cached);
            outcome.ok = true;
            outcome.cached = true;
          }
        }
        if (!outcome.cached) {
          Experiment experiment(outcome.job.spec);
          outcome.result = experiment.run();
          outcome.ok = true;
          if (options_.cache != nullptr) {
            options_.cache->store(outcome.job.spec, outcome.result);
          }
        }
      } catch (const std::exception& e) {
        outcome.error = e.what();
        if (options_.cache != nullptr) options_.cache->note_skipped();
      }
      outcome.elapsed_seconds = seconds_since(job_start);

      std::unique_lock<std::mutex> lock(mu);
      out.jobs[i] = std::move(outcome);
      done[i] = 1;
      flush_prefix(lock);
    }
  };

  if (n_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  folder.finish();

  // Surface buffered sink failures before the caller closes the stream
  // (an ofstream destructor would swallow them).
  if (options_.jsonl != nullptr && !options_.jsonl->flush().good()) {
    out.jsonl_failed = true;
  }
  if (options_.cache != nullptr) {
    const CacheStats after = options_.cache->stats();
    out.cache.hits = after.hits - cache_before.hits;
    out.cache.misses = after.misses - cache_before.misses;
    out.cache.corrupt = after.corrupt - cache_before.corrupt;
    out.cache.stores = after.stores - cache_before.stores;
    out.cache.skipped = after.skipped - cache_before.skipped;
  }
  out.elapsed_seconds = seconds_since(suite_start);
  return out;
}

}  // namespace deproto::api
