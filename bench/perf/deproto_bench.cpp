// deproto-bench: the end-to-end benchmark of the deproto pipeline.
//
// One run measures one workload for a fixed wall-clock budget and prints,
// as the last line of stdout, a JSON object with the keys "correct",
// "attempted", "failed" and "metrics". The line before it carries the run's
// context (build type, compiler, revision, nproc, load average), sample
// counts and the output digest.
//
//   deproto-bench --workload fig11-sync --seed 3 --seconds 15 --trace 0
//   deproto-bench --workload exact-gate --seed 0 --seconds 15 --trace 1
//                 --trace-out trace.json
//
// --trace 0 reports the end-to-end metrics (jobs_per_s, job_p50_ms,
// job_p90_ms, setup_s, peak_rss_mb). --trace 1 instead runs the workload's
// job list on one thread split into public layer calls (resolve ->
// synthesize/verify -> launch -> advance -> finish -> dump -> cache key /
// store / load -> wire frames; for exact-gate: lint -> ExactChain build ->
// solves), reports per-layer metrics, and with --trace-out writes the spans
// as Chrome trace-event JSON (open it in https://ui.perfetto.dev).
//
// deproto-bench calls the library in-process, on one thread.
// bench/perf/README.md describes the workloads and metrics, and
// bench/perf/run.py builds this binary and wraps it.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "analysis/verifier.hpp"
#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/suite_runner.hpp"
#include "api/sweep.hpp"
#include "dist/wire.hpp"

namespace {

namespace api = deproto::api;
namespace analysis = deproto::analysis;
namespace dist = deproto::dist;
namespace fs = std::filesystem;
using api::Json;
using Clock = std::chrono::steady_clock;

// Every sweep runs on one SuiteRunner thread (--threads 1, the determinism
// reference). With two threads a pass ends when the thread that drew the
// last large job finishes, and with two dispatch workers the small-jobs
// rate varied by 10-30% between runs on a 4-vCPU host, against 2-5% in
// process on one thread.
constexpr std::size_t kThreads = 1;
// Set-up (including its warm-up pass) is repeated and its median reported,
// so one slow repetition on a shared host does not move setup_s.
constexpr int kSetupReps = 5;
// Population of the exact chain in exact-gate. deproto-lint --exact uses
// 32, where one pass over the registry takes ~25 s; at 18 a pass takes
// about a second, so one run measures ten passes.
constexpr std::size_t kExactN = 18;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Process context and resource use.

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one_minute = 0.0;
  in >> one_minute;
  return one_minute;
}

Json context_json() {
  return Json::object()
      .set("build_type", Json::string(DEPROTO_BENCH_BUILD_TYPE))
      .set("compiler", Json::string(DEPROTO_BENCH_COMPILER))
      .set("git_rev", Json::string(DEPROTO_BENCH_GIT_REV))
      .set("nproc", Json::number(std::thread::hardware_concurrency()))
      .set("loadavg_1m", Json::number(load_average()));
}

// ---------------------------------------------------------------------------
// In-memory span recorder for the traced run.

class Tracer {
 public:
  struct Span {
    const char* name;  // "<layer>.<operation>", a string literal
    double start_us = 0.0;
    double dur_us = 0.0;
    double child_us = 0.0;  // covered by direct children
    std::size_t job = 0;
    long parent = -1;
  };

  /// Runs fn() inside a span named `name`, nested under the open span.
  template <typename F>
  decltype(auto) span(const char* name, std::size_t job, F&& fn) {
    const std::size_t id = spans_.size();
    spans_.push_back(Span{name, now_us(), 0.0, 0.0, job,
                          stack_.empty() ? -1L : static_cast<long>(stack_.back())});
    stack_.push_back(id);
    const Closer closer{*this, id};
    return fn();
  }

  /// Self times (span minus its children), in seconds, of every span named
  /// `name`.
  [[nodiscard]] std::vector<double> self_seconds(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.dur_us - s.child_us) * 1e-6);
    }
    return out;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events), as Perfetto and
  /// chrome://tracing read it.
  [[nodiscard]] Json to_json() const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      events.push(
          Json::object()
              .set("name", Json::string(name))
              .set("cat", Json::string(name.substr(0, name.find('.'))))
              .set("ph", Json::string("X"))
              .set("ts", Json::number(s.start_us))
              .set("dur", Json::number(s.dur_us))
              .set("pid", Json::number(1))
              .set("tid", Json::number(1))
              .set("args", Json::object()
                               .set("job", Json::number(s.job))
                               .set("span", Json::number(i))
                               .set("parent", Json::number(s.parent))));
    }
    return Json::object()
        .set("displayTimeUnit", Json::string("ms"))
        .set("traceEvents", std::move(events));
  }

 private:
  struct Closer {
    Tracer& tracer;
    std::size_t id;
    ~Closer() { tracer.close(id); }
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  void close(std::size_t id) {
    Span& s = spans_[id];
    s.dur_us = now_us() - s.start_us;
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_us += s.dur_us;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------------------
// Results of the timed and traced passes.

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // first few, for the detail line

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

struct PassResult {
  std::size_t jobs = 0;
  double wall_s = 0.0;
  std::vector<double> job_ms;
};

/// Per-layer measurements of one traced run, keyed by metric name. A
/// workload reports the layers it runs; the rest print as 0.
using LayerMetrics = std::map<std::string, double>;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them. Layers
// that only some workloads run report throughputs, so "no work" reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"ode.resolve_us", "us"},
    {"core.synthesize_verify_us", "us"},
    {"analysis.lint_us", "us"},
    {"api.result_dump_us", "us"},
    {"api.result_dump_kb", "KiB"},
    {"sim.sync.node_periods_per_s", "1/s"},
    {"sim.event.node_periods_per_s", "1/s"},
    {"sim.count.periods_per_s", "1/s"},
    {"sim.launches_per_s", "1/s"},
    {"api.finishes_per_s", "1/s"},
    {"api.cache_keys_per_s", "1/s"},
    {"api.cache_stores_per_s", "1/s"},
    {"api.cache_loads_per_s", "1/s"},
    {"api.cache_hit_frac", "frac"},
    {"api.suite_busy_frac", "frac"},
    {"dist.frame_mb_per_s", "MB/s"},
    {"analysis.chain_states_per_s", "1/s"},
    {"analysis.solves_per_s", "1/s"},
    {"analysis.kernel_nnz", "count"},
    {"trace.overhead_frac", "frac"},
};

double per_second(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double median_us(const Tracer& tracer, const std::string& name) {
  return median(tracer.self_seconds(name)) * 1e6;
}

double ops_per_second(const Tracer& tracer, const std::string& name) {
  const std::vector<double> times = tracer.self_seconds(name);
  return per_second(static_cast<double>(times.size()), sum(times));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs from the seed and check them; repeated kSetupReps
  /// times, each repetition replacing the previous one's state.
  virtual void setup(Tally& tally) = 0;
  /// One timed unit of work.
  virtual PassResult pass(Tally& tally) = 0;
  /// One pass of the job list on one thread, split into layer calls.
  virtual void traced_pass(Tracer& tracer, Tally& tally) = 0;
  /// Per-layer metrics from the traced spans plus the counters of the last
  /// untimed pass.
  virtual LayerMetrics layer_metrics(const Tracer& tracer) const = 0;
  /// SHA-256 of the deterministic output (empty before the first pass).
  [[nodiscard]] virtual std::string digest() const = 0;
};

// ---------------------------------------------------------------------------
// Sweep workloads: a job list through SuiteRunner.

/// The registered seed for --seed 0, otherwise replicate_seed(base, seed).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed) {
  return seed == 0 ? base : api::replicate_seed(base, seed);
}

api::ScenarioSpec reseeded(api::ScenarioSpec spec, std::uint64_t seed) {
  spec.seed = derive_seed(spec.seed, seed);
  spec.faults.churn.seed = derive_seed(spec.faults.churn.seed, seed);
  return spec;
}

/// Expand each sweep and concatenate the job lists, renumbering jobs and
/// points so the result is one point-contiguous list for run_jobs.
std::vector<api::SweepJob> concat_jobs(const std::vector<api::SweepSpec>& sweeps) {
  std::vector<api::SweepJob> jobs;
  std::size_t point_base = 0;
  for (const api::SweepSpec& sweep : sweeps) {
    for (api::SweepJob& job : sweep.expand()) {
      job.index = jobs.size();
      job.point += point_base;
      jobs.push_back(std::move(job));
    }
    point_base += sweep.point_count();
  }
  return jobs;
}

api::SweepSpec replicated(api::ScenarioSpec base, std::size_t replicates) {
  api::SweepSpec sweep;
  sweep.name = base.name;
  sweep.base = std::move(base);
  sweep.replicates = replicates;
  return sweep;
}

// fig11-sync: the fig11-convergence-vs-n preset (LV p=0.01, 60/40 split,
// N in {1e4, 2e4, 5e4, 1e5}, 3 replicates) cut from 1000 to 50 periods, so
// one pass of its 12 sync jobs takes about a second.
std::vector<api::SweepJob> fig11_jobs(std::uint64_t seed) {
  api::SweepSpec sweep = api::sweep_registry_get("fig11-convergence-vs-n");
  sweep.base = reseeded(sweep.base, seed);
  sweep.base.periods = 50;
  return sweep.expand();
}

// event-faults: the four event-backend fault scenarios at N = 1000, three
// replicates each: massive failure (LV and endemic), crash-recovery, churn.
std::vector<api::SweepJob> event_fault_jobs(std::uint64_t seed) {
  std::vector<api::SweepSpec> sweeps;
  for (const char* name :
       {"lv-majority-failure-event", "endemic-massive-failure-event",
        "endemic-crash-recovery-event", "endemic-churn-event"}) {
    sweeps.push_back(
        replicated(reseeded(api::registry_get(name), seed).scaled_to(1000), 3));
  }
  return concat_jobs(sweeps);
}

// small-jobs-*: 18 points {epidemic 16 periods, lv-majority 60, endemic 40}
// x N in {200, 300, 400} x {sync, count}, 64 replicates each: 1152 jobs of
// under 2.4 * 10^4 node-periods, so per-job fixed costs (resolve,
// synthesize, verify, launch, finish, dump, JSONL) are the work. The event
// backend is left out: at ~0.8 us per node-period its jobs would be all
// simulation.
std::vector<api::SweepJob> small_jobs(std::uint64_t seed) {
  const std::pair<const char*, std::size_t> bases[] = {
      {"epidemic", 16}, {"lv-majority", 60}, {"endemic", 40}};
  std::vector<api::SweepSpec> sweeps;
  for (const auto& [name, periods] : bases) {
    api::SweepSpec sweep =
        replicated(reseeded(api::registry_get(name), seed).scaled_to(300), 64);
    sweep.base.periods = periods;
    api::SweepAxis n{"n", {}};
    for (const double v : {200.0, 300.0, 400.0}) n.values.push_back(Json::number(v));
    api::SweepAxis backend{"backend", {}};
    for (const char* b : {"sync", "count"}) {
      backend.values.push_back(Json::string(b));
    }
    sweep.axes = {n, backend};
    sweeps.push_back(std::move(sweep));
  }
  return concat_jobs(sweeps);
}

/// The state each registry protocol must end in: the infected state of the
/// epidemic, the initial majority of LV, the averse state of endemic.
std::optional<std::size_t> expected_dominant(const api::ScenarioSpec& spec) {
  const std::string& source = spec.source.catalog;
  if (source == "epidemic") return 1;
  if (source == "lv") return 0;
  if (source == "endemic") return 2;
  return std::nullopt;
}

/// Checks one JSONL line against the job it reports; empty when correct.
/// `as_expected` reports whether the job ended in its expected dominant
/// state, which at N of a few hundred is likely but not certain.
std::string check_line(const std::string& line, const api::SweepJob& job,
                       bool* as_expected) {
  const Json j = Json::parse(line);
  if (j.at("job").as_size() != job.index) return "line out of order";
  if (!j.get_or("ok", false)) return "failed: " + j.get_or("error", std::string());
  const Json& r = j.at("result");
  if (!r.get_or("mean_field_verified", false)) return "mean field not verified";
  std::size_t total = 0;
  for (const std::size_t c : api::counts_from_json(r.at("final_counts"))) {
    total += c;
  }
  if (total != r.at("final_alive").as_size()) return "mass not conserved";
  const std::optional<std::size_t> dominant = expected_dominant(job.spec);
  *as_expected = !dominant ||
                 r.at("convergence").at("dominant_state").as_size() == *dominant;
  return "";
}

class SweepWorkload final : public Workload {
 public:
  /// With `warm`, set-up fills a result cache and every pass replays the
  /// job list from it; otherwise every pass executes every job.
  SweepWorkload(std::function<std::vector<api::SweepJob>(std::uint64_t)> make,
                bool warm, std::uint64_t seed, fs::path work_dir)
      : make_(std::move(make)),
        warm_(warm),
        seed_(seed),
        work_dir_(std::move(work_dir)) {}

  void setup(Tally& tally) override {
    jobs_ = make_(seed_);
    // Lint every distinct point (what deproto-lint does before a sweep):
    // a spec the static verifier rejects would fail every job.
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (i > 0 && jobs_[i].point == jobs_[i - 1].point) continue;
      const analysis::Report report = analysis::analyze_spec(jobs_[i].spec);
      if (!report.ok()) tally.fail("lint rejects " + jobs_[i].spec.name);
    }
    if (warm_) {
      // Fill a fresh cache; its output is the reference every warm replay
      // must reproduce byte for byte.
      cache_.reset();
      fs::remove_all(work_dir_ / "warm");
      cache_ = std::make_unique<api::ResultCache>(work_dir_ / "warm");
      reference_.clear();
      fresh_elapsed_.clear();
      const Run run = execute(cache_.get());
      if (run.result.cache.stores != jobs_.size()) tally.fail("cache fill incomplete");
      accept(run, tally);
      for (const api::JobOutcome& o : run.result.jobs) {
        fresh_elapsed_.push_back(o.elapsed_seconds);
      }
    }
  }

  PassResult pass(Tally& tally) override {
    Run run = execute(cache_.get());
    if (warm_ && run.result.cache.hits != jobs_.size()) {
      tally.fail("warm pass missed the cache");
    }
    tally.attempted += jobs_.size();
    accept(run, tally);
    PassResult out;
    out.jobs = jobs_.size();
    out.wall_s = run.wall_s;
    const bool first = fresh_elapsed_.empty();
    for (const api::JobOutcome& o : run.result.jobs) {
      out.job_ms.push_back(o.elapsed_seconds * 1e3);
      if (first) fresh_elapsed_.push_back(o.elapsed_seconds);
    }
    last_ = std::move(run.result);
    last_wall_ = run.wall_s;
    return out;
  }

  void traced_pass(Tracer& tracer, Tally& tally) override {
    const std::vector<std::string> reference_results = reference_result_dumps();
    const fs::path dir = work_dir_ / "traced";
    fs::remove_all(dir);
    api::ResultCache cache(dir);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (i > 0 && jobs_[i].point == jobs_[i - 1].point) continue;
      tracer.span("analysis.lint", i, [&] {
        return analysis::analyze_spec(jobs_[i].spec).ok();
      });
    }
    for (const api::SweepJob& job : jobs_) {
      ++tally.attempted;
      try {
        const std::string dump = tracer.span("bench.job", job.index, [&] {
          return traced_job(tracer, cache, job);
        });
        if (dump != reference_results[job.index]) {
          tally.fail("traced dump differs from untraced, job " +
                     std::to_string(job.index));
        }
      } catch (const std::exception& e) {
        tally.fail(std::string("traced job threw: ") + e.what());
      }
    }
    fs::remove_all(dir);
    ++traced_passes_;
  }

  LayerMetrics layer_metrics(const Tracer& tracer) const override {
    const api::SweepResult& r = last_;
    const double hits = static_cast<double>(r.cache.hits);
    const double lookups = hits + static_cast<double>(r.cache.misses);
    double busy = 0.0;
    for (const api::JobOutcome& o : r.jobs) busy += o.elapsed_seconds;
    // What an untraced job's elapsed_seconds covers: the run, plus the
    // cache store when the fresh results were filling the warm cache.
    double executed = warm_ ? sum(tracer.self_seconds("api.cache_store")) : 0.0;
    for (const char* op : {"ode.resolve", "core.synthesize_verify", "sim.launch",
                           "sim.advance", "api.finish"}) {
      executed += sum(tracer.self_seconds(op));
    }
    return {
        {"ode.resolve_us", median_us(tracer, "ode.resolve")},
        {"core.synthesize_verify_us", median_us(tracer, "core.synthesize_verify")},
        {"analysis.lint_us", median_us(tracer, "analysis.lint")},
        {"api.result_dump_us", median_us(tracer, "api.result_dump")},
        {"api.result_dump_kb", median(dump_kib_)},
        {"sim.sync.node_periods_per_s",
         per_second(work_[0].units, work_[0].seconds)},
        {"sim.event.node_periods_per_s",
         per_second(work_[1].units, work_[1].seconds)},
        {"sim.count.periods_per_s", per_second(work_[2].units, work_[2].seconds)},
        {"sim.launches_per_s", ops_per_second(tracer, "sim.launch")},
        {"api.finishes_per_s", ops_per_second(tracer, "api.finish")},
        {"api.cache_keys_per_s", ops_per_second(tracer, "api.cache_key")},
        {"api.cache_stores_per_s", ops_per_second(tracer, "api.cache_store")},
        {"api.cache_loads_per_s", ops_per_second(tracer, "api.cache_load")},
        {"api.cache_hit_frac", lookups > 0.0 ? hits / lookups : 0.0},
        {"api.suite_busy_frac", per_second(busy, last_wall_)},
        {"dist.frame_mb_per_s",
         per_second(frame_bytes_ * 1e-6,
                    sum(tracer.self_seconds("dist.frame_encode")) +
                        sum(tracer.self_seconds("dist.frame_decode")))},
        {"trace.overhead_frac",
         per_second(executed, sum(fresh_elapsed_) * traced_passes_) - 1.0},
    };
  }

  [[nodiscard]] std::string digest() const override {
    return reference_.empty() ? "" : api::sha256_hex(reference_);
  }

 private:
  struct Run {
    api::SweepResult result;
    std::string jsonl;
    double wall_s = 0.0;
  };

  // Work done by one backend inside sim.advance spans: node-periods for the
  // per-node backends, periods for the count backend.
  struct BackendWork {
    double units = 0.0;
    double seconds = 0.0;
  };

  Run execute(api::ResultCache* cache) const {
    std::vector<api::SweepJob> jobs = jobs_;
    std::ostringstream sink;
    api::SuiteOptions options;
    options.threads = kThreads;
    options.store_results = false;
    options.cache = cache;
    options.jsonl = &sink;
    Run run;
    const auto start = Clock::now();
    run.result = api::SuiteRunner(options).run_jobs(std::move(jobs), "bench");
    run.wall_s = seconds_since(start);
    run.jsonl = sink.str();
    return run;
  }

  /// The first output becomes the reference, checked job by job; every
  /// later output must match it byte for byte.
  void accept(const Run& run, Tally& tally) {
    const std::string text = run.result.to_json(false).dump() + "\n" + run.jsonl;
    if (run.result.jsonl_failed) tally.fail("jsonl sink failed");
    if (reference_.empty()) {
      const std::vector<std::string> lines = split_lines(run.jsonl);
      if (lines.size() != jobs_.size()) tally.fail("jsonl line count");
      // At least 90% of each point's replicates must end in the expected
      // state; a finite population occasionally does not.
      std::map<std::size_t, std::pair<std::size_t, std::size_t>> expected;
      for (std::size_t i = 0; i < lines.size() && i < jobs_.size(); ++i) {
        bool as_expected = false;
        const std::string why = check_line(lines[i], jobs_[i], &as_expected);
        if (!why.empty()) tally.fail("job " + std::to_string(i) + ": " + why);
        auto& [hits, total] = expected[jobs_[i].point];
        hits += as_expected ? 1 : 0;
        ++total;
      }
      for (const auto& [point, counts] : expected) {
        if (10 * counts.first < 9 * counts.second) {
          tally.fail("point " + std::to_string(point) +
                     ": too few replicates end in the expected state");
        }
      }
      reference_ = text;
      return;
    }
    if (text == reference_) return;
    const std::vector<std::string> got = split_lines(text);
    const std::vector<std::string> want = split_lines(reference_);
    for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
      if (i >= got.size() || i >= want.size() || got[i] != want[i]) {
        tally.fail("output differs from the reference at line " + std::to_string(i));
      }
    }
  }

  /// Each job's to_json(false) dump as the reference JSONL carries it.
  std::vector<std::string> reference_result_dumps() const {
    std::vector<std::string> lines = split_lines(reference_);
    std::vector<std::string> out;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const Json line = Json::parse(lines[i]);
      out.push_back(line.contains("result") ? line.at("result").dump() : "");
    }
    out.resize(jobs_.size());
    return out;
  }

  std::string traced_job(Tracer& tracer, api::ResultCache& cache,
                         const api::SweepJob& job) {
    const std::size_t j = job.index;
    api::Experiment experiment(job.spec);
    tracer.span("ode.resolve", j, [&] { return &experiment.resolved(); });
    tracer.span("core.synthesize_verify", j, [&] { return &experiment.artifacts(); });
    api::ExperimentRun run = tracer.span("sim.launch", j, [&] { return experiment.launch(); });
    const auto advance_start = Clock::now();
    tracer.span("sim.advance", j, [&] { run.advance(job.spec.periods); });
    const double advance_s = seconds_since(advance_start);
    const api::ExperimentResult result = tracer.span("api.finish", j, [&] { return run.finish(); });
    const std::string dump =
        tracer.span("api.result_dump", j, [&] { return result.to_json(false).dump(); });
    dump_kib_.push_back(static_cast<double>(dump.size()) / 1024.0);

    const api::Backend backend = api::resolve_backend(job.spec.backend, job.spec.n);
    const double periods = static_cast<double>(job.spec.periods);
    const double n = static_cast<double>(job.spec.n);
    BackendWork& work = backend == api::Backend::Sync    ? work_[0]
                        : backend == api::Backend::Event ? work_[1]
                                                         : work_[2];
    work.units += backend == api::Backend::Count ? periods : n * periods;
    work.seconds += advance_s;

    tracer.span("api.cache_key", j, [&] { return cache.key_for(job.spec); });
    tracer.span("api.cache_store", j, [&] { cache.store(job.spec, result); });
    const std::optional<api::ExperimentResult> loaded =
        tracer.span("api.cache_load", j, [&] { return cache.load(job.spec); });
    if (!loaded || loaded->to_json(false).dump() != dump) {
      throw std::runtime_error("cache replay differs from the fresh result");
    }

    // The frames a dispatch worker would exchange for this job: the Job
    // frame down, the Result frame (header line + raw dump) up.
    const std::string job_payload =
        Json::object()
            .set("job", Json::number(j))
            .set("spec", job.spec.to_json())
            .dump();
    const std::string result_payload =
        Json::object().set("job", Json::number(j)).set("ok", Json::boolean(true)).dump() +
        "\n" + dump;
    const std::string bytes = tracer.span("dist.frame_encode", j, [&] {
      return dist::encode_frame({dist::FrameType::Job, job_payload}) +
             dist::encode_frame({dist::FrameType::Result, result_payload});
    });
    frame_bytes_ += static_cast<double>(bytes.size());
    const bool decoded = tracer.span("dist.frame_decode", j, [&] {
      dist::FrameDecoder decoder;
      decoder.feed(bytes.data(), bytes.size());
      dist::Frame a;
      dist::Frame b;
      return decoder.next(&a) == dist::FrameDecoder::Status::Frame &&
             decoder.next(&b) == dist::FrameDecoder::Status::Frame &&
             a.payload == job_payload && b.payload == result_payload;
    });
    if (!decoded) throw std::runtime_error("frame round trip failed");
    return dump;
  }

  std::function<std::vector<api::SweepJob>(std::uint64_t)> make_;
  bool warm_;
  std::uint64_t seed_;
  fs::path work_dir_;

  std::vector<api::SweepJob> jobs_;
  std::unique_ptr<api::ResultCache> cache_;  // warm only
  std::string reference_;  // to_json(false) dump + "\n" + JSONL
  api::SweepResult last_;  // the last timed pass, for counters
  double last_wall_ = 0.0;
  std::vector<double> fresh_elapsed_;  // per-job seconds of a fresh execution

  // Traced-run accumulators.
  BackendWork work_[3];  // sync, event, count
  std::vector<double> dump_kib_;
  double frame_bytes_ = 0.0;
  double traced_passes_ = 0.0;
};

// ---------------------------------------------------------------------------
// exact-gate: deproto-lint --registry --exact over every registry scenario.

class ExactGateWorkload final : public Workload {
 public:
  void setup(Tally& tally) override {
    // The exact chain models the fault-free count dynamics and never reads
    // the seed, so this workload's inputs do not depend on it.
    specs_.clear();
    for (const std::string& name : api::registry_names()) {
      specs_.push_back(api::registry_get(name));
      const analysis::Report report = analysis::analyze_spec(specs_.back());
      if (!report.ok()) tally.fail("lint rejects " + name);
    }
  }

  PassResult pass(Tally& tally) override {
    analysis::VerifyOptions options;
    options.exact = true;
    options.exact_chain.n = kExactN;
    PassResult out;
    std::string text;
    const auto start = Clock::now();
    for (const api::ScenarioSpec& spec : specs_) {
      const auto job_start = Clock::now();
      const analysis::Report report = analysis::analyze_spec(spec, options);
      out.job_ms.push_back(seconds_since(job_start) * 1e3);
      ++tally.attempted;
      if (!report.ok() || !report.by_rule("exact.state-budget").empty() ||
          report.by_rule("exact.absorbing-class").empty()) {
        tally.fail("exact verification incomplete for " + spec.name);
      }
      text += report.to_json().dump() + "\n";
    }
    out.wall_s = seconds_since(start);
    out.jobs = specs_.size();
    last_busy_s_ = sum(out.job_ms) * 1e-3;
    last_wall_s_ = out.wall_s;
    if (reference_.empty()) {
      reference_ = text;
      fresh_elapsed_s_ = out.wall_s;
    } else if (text != reference_) {
      tally.fail("exact reports differ between passes");
    }
    return out;
  }

  void traced_pass(Tracer& tracer, Tally& tally) override {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      ++tally.attempted;
      try {
        tracer.span("bench.job", i, [&] { traced_job(tracer, i); });
      } catch (const std::exception& e) {
        tally.fail(std::string("traced job threw: ") + e.what());
      }
    }
    ++traced_passes_;
  }

  LayerMetrics layer_metrics(const Tracer& tracer) const override {
    double executed = 0.0;
    for (const char* op : {"analysis.lint", "analysis.chain_build", "analysis.solve"}) {
      executed += sum(tracer.self_seconds(op));
    }
    return {
        {"ode.resolve_us", median_us(tracer, "ode.resolve")},
        {"core.synthesize_verify_us", median_us(tracer, "core.synthesize_verify")},
        {"analysis.lint_us", median_us(tracer, "analysis.lint")},
        {"api.result_dump_us", median_us(tracer, "api.result_dump")},
        {"api.result_dump_kb", median(dump_kib_)},
        {"api.suite_busy_frac", per_second(last_busy_s_, last_wall_s_)},
        {"analysis.chain_states_per_s",
         per_second(chain_states_, sum(tracer.self_seconds("analysis.chain_build")))},
        {"analysis.solves_per_s", ops_per_second(tracer, "analysis.solve")},
        {"analysis.kernel_nnz", kernel_nnz_},
        {"trace.overhead_frac",
         per_second(executed, fresh_elapsed_s_ * traced_passes_) - 1.0},
    };
  }

  [[nodiscard]] std::string digest() const override {
    return reference_.empty() ? "" : api::sha256_hex(reference_);
  }

 private:
  void traced_job(Tracer& tracer, std::size_t i) {
    const api::ScenarioSpec& spec = specs_[i];
    api::Experiment experiment(spec);
    tracer.span("ode.resolve", i, [&] { return &experiment.resolved(); });
    const api::Experiment::Artifacts& art = *tracer.span(
        "core.synthesize_verify", i, [&] { return &experiment.artifacts(); });
    const analysis::Report report =
        tracer.span("analysis.lint", i, [&] { return analysis::analyze_spec(spec); });
    const std::string dump =
        tracer.span("api.result_dump", i, [&] { return report.to_json().dump(); });
    dump_kib_.push_back(static_cast<double>(dump.size()) / 1024.0);

    analysis::ExactChainOptions options;
    options.n = kExactN;
    options.message_loss = spec.runtime.message_loss;
    options.tokens = spec.runtime.tokens;
    const analysis::ExactChain chain = tracer.span("analysis.chain_build", i, [&] {
      return analysis::ExactChain(art.synthesis.machine, options);
    });
    chain_states_ += static_cast<double>(chain.num_chain_states());
    if (traced_passes_ == 0) {
      for (std::size_t s = 0; s < chain.num_chain_states(); ++s) {
        kernel_nnz_ += static_cast<double>(chain.row(s).size());
      }
    }
    // The solves check_exact runs on the seeded start.
    const std::size_t start = chain.seeded_index(spec.scaled_to(kExactN).initial_counts);
    tracer.span("analysis.solve", i, [&] { return chain.absorption_probabilities(start); });
    if (!chain.classes()[chain.class_of(start)].recurrent) {
      tracer.span("analysis.solve", i, [&] { return chain.expected_absorption_time(start); });
    }
    if (chain.recurrent_classes().size() == 1) {
      tracer.span("analysis.solve", i, [&] { return chain.stationary_distribution(); });
    }
  }

  std::vector<api::ScenarioSpec> specs_;
  std::string reference_;  // one report dump per line, in registry order
  double fresh_elapsed_s_ = 0.0;
  double last_busy_s_ = 0.0;  // the last untraced pass
  double last_wall_s_ = 0.0;
  std::vector<double> dump_kib_;
  double chain_states_ = 0.0;
  double kernel_nnz_ = 0.0;
  double traced_passes_ = 0.0;
};

// ---------------------------------------------------------------------------
// Command line and the run itself.

const char* const kWorkloads[] = {"fig11-sync", "event-faults", "small-jobs-cold",
                                  "small-jobs-warm", "exact-gate"};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const fs::path& work_dir) {
  if (name == "fig11-sync") {
    return std::make_unique<SweepWorkload>(fig11_jobs, false, seed, work_dir);
  }
  if (name == "event-faults") {
    return std::make_unique<SweepWorkload>(event_fault_jobs, false, seed, work_dir);
  }
  if (name == "small-jobs-cold") {
    return std::make_unique<SweepWorkload>(small_jobs, false, seed, work_dir);
  }
  if (name == "small-jobs-warm") {
    return std::make_unique<SweepWorkload>(small_jobs, true, seed, work_dir);
  }
  if (name == "exact-gate") return std::make_unique<ExactGateWorkload>();
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".bench_build/work";
};

// Seed-0 output digests, relative to the repository root deproto-bench runs in.
constexpr const char* kDigests = "bench/perf/digests.json";

int usage() {
  std::fprintf(stderr,
               "usage: deproto-bench --workload <name> [--seed S] [--seconds T] "
               "[--trace 0|1] [--trace-out file.json] [--work-dir dir]\n"
               "workloads:");
  for (const char* name : kWorkloads) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// The seed-0 digest recorded for `workload`, or empty when none is.
std::string recorded_digest(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream text;
  text << in.rdbuf();
  const Json j = Json::parse(text.str());
  return j.contains(workload) ? j.at(workload).as_string() : "";
}

Json metric(double value, const char* unit) {
  return Json::object().set("value", Json::number(value)).set("unit", Json::string(unit));
}

int run(const Args& args) {
  const fs::path work_dir =
      fs::path(args.work_dir) / ("run-" + std::to_string(getpid()));
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, work_dir);
  if (!workload) return usage();
  fs::create_directories(work_dir);

  // Set-up: inputs from the seed, their lint, and one untimed warm-up pass
  // whose output becomes the reference later passes must reproduce.
  Tally tally;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    workload->setup(tally);
    workload->pass(tally);
    setup_s.push_back(seconds_since(start));
  }

  // Timed passes until the budget is spent. Each statistic is taken from
  // the fastest pass: a shared host only ever slows a pass down, and
  // between runs on a 4-vCPU host the fastest pass moved 2-3x less than the
  // median pass.
  std::vector<double> pass_rates;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_p90_ms;
  std::size_t job_samples = 0;
  Json metrics = Json::object();
  Tracer tracer;
  const auto measure_start = Clock::now();
  if (args.trace) {
    do {
      workload->traced_pass(tracer, tally);
    } while (seconds_since(measure_start) < args.seconds);
    const LayerMetrics measured = workload->layer_metrics(tracer);
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = measured.find(m.name);
      metrics.set(m.name, metric(it == measured.end() ? 0.0 : it->second, m.unit));
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << tracer.to_json().dump() << "\n";
      if (!out.good()) tally.fail("cannot write " + args.trace_out);
    }
  } else {
    do {
      const PassResult pass = workload->pass(tally);
      pass_rates.push_back(per_second(static_cast<double>(pass.jobs), pass.wall_s));
      pass_p50_ms.push_back(quantile(pass.job_ms, 0.50));
      pass_p90_ms.push_back(quantile(pass.job_ms, 0.90));
      job_samples += pass.job_ms.size();
    } while (seconds_since(measure_start) < args.seconds);
    metrics
        .set("jobs_per_s",
             metric(*std::max_element(pass_rates.begin(), pass_rates.end()), "jobs/s"))
        .set("job_p50_ms",
             metric(*std::min_element(pass_p50_ms.begin(), pass_p50_ms.end()), "ms"))
        .set("job_p90_ms",
             metric(*std::min_element(pass_p90_ms.begin(), pass_p90_ms.end()), "ms"))
        .set("setup_s", metric(median(setup_s), "s"))
        .set("peak_rss_mb", metric(peak_rss_mib(), "MiB"));
  }

  const std::string digest = workload->digest();
  if (args.seed == 0) {
    const std::string want = recorded_digest(kDigests, args.workload);
    if (want.empty()) {
      tally.fail(std::string("no seed-0 digest recorded in ") + kDigests);
    } else if (want != digest) {
      tally.fail(std::string("seed-0 output digest differs from ") + kDigests);
    }
  }
  workload.reset();
  fs::remove_all(work_dir);

  Json errors = Json::array();
  for (const std::string& e : tally.errors) errors.push(Json::string(e));
  std::printf("%s\n",
              Json::object()
                  .set("workload", Json::string(args.workload))
                  .set("seed", Json::number(args.seed))
                  .set("context", context_json())
                  .set("timed_passes", Json::number(pass_rates.size()))
                  .set("pass_jobs_per_s_quartiles",
                       Json::array()
                           .push(Json::number(quantile(pass_rates, 0.25)))
                           .push(Json::number(quantile(pass_rates, 0.5)))
                           .push(Json::number(quantile(pass_rates, 0.75))))
                  .set("job_samples", Json::number(job_samples))
                  .set("spans", Json::number(tracer.spans().size()))
                  .set("digest", Json::string(digest))
                  .set("errors", std::move(errors))
                  .dump()
                  .c_str());
  const bool correct = tally.failed == 0;
  std::printf("%s\n", Json::object()
                          .set("correct", Json::boolean(correct))
                          .set("attempted", Json::number(tally.attempted))
                          .set("failed", Json::number(tally.failed))
                          .set("metrics", std::move(metrics))
                          .dump()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deproto-bench: %s\n", e.what());
    return 1;
  }
}
