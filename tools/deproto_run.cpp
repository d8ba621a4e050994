// deproto-run: execute registered (or JSON-specified) experiment scenarios
// and parameter sweeps through the deproto::api facade.
//
//   deproto-run --list                     show scenarios + sweep presets
//   deproto-run <scenario> [options]       run one registered scenario
//   deproto-run --spec spec.json [options] run a ScenarioSpec from a file
//   deproto-run --ode <file|-> [options]   synthesize and run ODE text
//                                          (ode/parser.hpp; - = stdin)
//   deproto-run --sweep <preset|file>      run a SweepSpec (see --list)
//   deproto-run --smoke                    scenario x backend matrix
//
// A single run prints each pipeline stage as it completes: the parsed
// system and taxonomy, the machine with its notes and mean-field verdict,
// then the population table. --ode runs a default ScenarioSpec (N 1000,
// 100 periods, seed 1); `--ode f --spec-out s.json` writes it out to edit
// the synthesis options (p, failure rate, auto-rewrite, tokenizing).
//
// Options:
//   --n <N>            override the group size (initial counts rescale)
//   --periods <k>      override the simulation length
//   --seed <s>         override the simulation seed
//   --backend <b>      override the execution backend: sync | event |
//                      count | net | auto (count at N >= 100000, else
//                      sync); net runs real UDP loopback sockets, N <= 1024
//   --threads <T>      sweep/smoke worker threads (0 = all cores)
//   --repeat <k>       replicates: lifts a single source into a sweep, or
//                      overrides a sweep's replicate count
//   --bisect <field>   instead of one run, bisect a numeric axis field
//                      (a sweep_axis_fields() name, e.g.
//                      runtime.message_loss) for the value where the run
//                      stops being absorbed -- the destabilization
//                      threshold. With --sweep, the sweep runs first and
//                      seeds the bracket (api::bracket_from_sweep)
//   --bisect-lo <v>    bisection bracket (defaults 0 .. 1; with --sweep
//   --bisect-hi <v>    they override the seeded one): absorbed at lo,
//                      not at hi
//   --bisect-iters <k> midpoint evaluations (default 12)
//   --bisect-tol <t>   stop once hi - lo <= t (default 0)
//   --json <file>      the ExperimentResult, or the aggregated
//                      SweepResult, as deterministic JSON (no timing)
//   --jsonl <file>     sweep: one result line per job, in job order
//   --cache <dir>      sweep/smoke: content-addressed result cache; jobs
//                      with a memoized result replay it (defaults to
//                      $DEPROTO_CACHE_DIR when set)
//   --no-cache         ignore --cache and $DEPROTO_CACHE_DIR
//   --cache-gc         after the run, delete cache entries it did not touch
//   --cache-max-bytes <b>  bound the cache directory (LRU eviction)
//   --spec-out <file>  write the (resolved) Scenario/SweepSpec as JSON
//   --quiet            suppress the population table / per-job lines
//
// Each flag belongs to the modes that read it (single run, sweep or
// --repeat, bisect, smoke, list); a flag given in a mode that
// would ignore it is an error, like a malformed value (exit 2).
//
// Every scenario runs on any backend, and the sweep engine guarantees
// results are ordered and aggregated by job index: the same sweep run
// with --threads 1 and --threads 8 writes byte-identical --json/--jsonl
// output.
//
// Examples:
//   deproto-run endemic-churn --backend event --n 1000 --json churn.json
//   deproto-run --sweep fig11-convergence-vs-n --threads 8 --json out.json
//   deproto-run lv-majority --repeat 5 --threads 2
//   printf "x' = -x*y\ny' = x*y\n" | deproto-run --ode - --periods 20

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/suite_runner.hpp"
#include "api/sweep.hpp"
#include "cli_util.hpp"
#include "core/synthesis.hpp"
#include "ode/parser.hpp"

namespace {

using deproto::api::Experiment;
using deproto::api::ExperimentResult;
using deproto::api::JobOutcome;
using deproto::api::Json;
using deproto::api::ResultCache;
using deproto::api::ScenarioSpec;
using deproto::api::SuiteOptions;
using deproto::api::SuiteRunner;
using deproto::api::SweepJob;
using deproto::api::SweepResult;
using deproto::api::SweepSpec;
using deproto::cli::read_file;
using deproto::cli::UsageError;
using deproto::cli::write_file;

struct CliOptions {
  std::vector<std::string> scenarios;  // positional; exactly one is valid
  std::string spec_file;
  std::string ode_file;
  std::string sweep;
  bool list = false;
  bool smoke = false;
  bool quiet = false;
  std::optional<std::size_t> n;
  std::optional<std::size_t> periods;
  std::optional<std::uint64_t> seed;
  std::optional<deproto::api::Backend> backend;
  std::size_t threads = 0;  // 0 = all cores
  std::optional<std::size_t> repeat;
  std::string bisect;  // axis field; empty = no bisection
  std::optional<double> bisect_lo;  // default 0, or the sweep-seeded lo
  std::optional<double> bisect_hi;  // default 1, or the sweep-seeded hi
  std::size_t bisect_iters = 12;
  double bisect_tol = 0.0;
  std::string json_out;
  std::string jsonl_out;
  std::string spec_out;
  std::string cache_dir;  // --cache, else $DEPROTO_CACHE_DIR
  bool no_cache = false;
  bool cache_gc = false;
  std::optional<std::uint64_t> cache_max_bytes;
};

/// The modes of deproto-run, as bits of cli::Flag::modes. `--sweep
/// --bisect` (sweep-seeded bisection) is kSweep | kBisect and accepts the
/// flags of both.
enum Mode : unsigned {
  kSingle = 1u << 0,  // one <scenario>, --spec or --ode run
  kSweep = 1u << 1,   // --sweep, or --repeat over a single source
  kBisect = 1u << 2,
  kSmoke = 1u << 3,
  kList = 1u << 4,
};
constexpr const char* kModeNames[] = {
    "single-run", "sweep", "bisect", "smoke", "list",
};
constexpr unsigned kSource = kSingle | kSweep | kBisect;
constexpr unsigned kPool = kSweep | kSmoke;

unsigned run_mode(const CliOptions& o) {
  if (o.smoke) return kSmoke;
  if (o.list) return kList;
  if (!o.sweep.empty()) return o.bisect.empty() ? kSweep : kSweep | kBisect;
  if (!o.bisect.empty()) return kBisect;
  return o.repeat.has_value() ? kSweep : kSingle;
}

deproto::cli::FlagTable flag_table(CliOptions* o) {
  using deproto::cli::list_flag;
  using deproto::cli::number_flag;
  using deproto::cli::switch_flag;
  using deproto::cli::text_flag;
  const auto set_backend = [o](const std::string& name) {
    try {
      o->backend = deproto::api::backend_from_name(name);
    } catch (const deproto::api::SpecError&) {
      return false;
    }
    return true;
  };
  return deproto::cli::FlagTable({
      switch_flag("--list", kList, &o->list),
      switch_flag("--smoke", kSmoke, &o->smoke),
      list_flag("<scenario>", kSource, &o->scenarios),
      text_flag("--spec", kSource, &o->spec_file),
      text_flag("--ode", kSource, &o->ode_file),
      text_flag("--sweep", kSweep, &o->sweep),
      number_flag<std::size_t>("--n", kSource, &o->n, 1),
      number_flag<std::size_t>("--periods", kSource, &o->periods),
      number_flag<std::uint64_t>("--seed", kSource, &o->seed),
      {"--backend", kSource, true, set_backend},
      number_flag<std::size_t>("--threads", kPool, &o->threads),
      number_flag<std::size_t>("--repeat", kSweep, &o->repeat, 1),
      text_flag("--bisect", kBisect, &o->bisect),
      number_flag<double>("--bisect-lo", kBisect, &o->bisect_lo),
      number_flag<double>("--bisect-hi", kBisect, &o->bisect_hi),
      number_flag<std::size_t>("--bisect-iters", kBisect, &o->bisect_iters),
      number_flag<double>("--bisect-tol", kBisect, &o->bisect_tol, 0.0),
      text_flag("--json", kSource | kSmoke, &o->json_out),
      text_flag("--jsonl", kPool, &o->jsonl_out),
      text_flag("--cache", kPool, &o->cache_dir),
      switch_flag("--no-cache", kPool, &o->no_cache),
      switch_flag("--cache-gc", kPool, &o->cache_gc),
      number_flag<std::uint64_t>("--cache-max-bytes", kPool,
                                 &o->cache_max_bytes),
      text_flag("--spec-out", kSource, &o->spec_out),
      switch_flag("--quiet", kSource, &o->quiet),
  });
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --list | --smoke | (<scenario> | --spec f.json | "
               "--ode f|- | --sweep preset|f.json) [--n N] [--periods k] "
               "[--seed s] [--backend sync|event|count|net|auto] "
               "[--threads T] [--repeat k] [--bisect field [--bisect-lo v] "
               "[--bisect-hi v] [--bisect-iters k] [--bisect-tol t]] "
               "[--json out.json] [--jsonl out.jsonl] [--cache dir] "
               "[--no-cache] [--cache-gc] [--cache-max-bytes b] "
               "[--spec-out out.json] [--quiet]\n",
               argv0);
  return 2;
}

void list_registry() {
  std::printf("%-24s %-6s %8s %8s  %s\n", "scenario", "backend", "N",
              "periods", "description");
  for (const std::string& name : deproto::api::registry_names()) {
    const ScenarioSpec* spec = deproto::api::registry_find(name);
    std::printf("%-24s %-6s %8zu %8zu  %s\n", spec->name.c_str(),
                deproto::api::backend_name(spec->backend), spec->n,
                spec->periods, spec->description.c_str());
  }
  std::printf("\n%-24s %-6s %8s %8s  %s\n", "sweep preset", "mode", "points",
              "jobs", "description");
  for (const std::string& name : deproto::api::sweep_registry_names()) {
    const SweepSpec* sweep = deproto::api::sweep_registry_find(name);
    std::printf("%-24s %-6s %8zu %8zu  %s\n", sweep->name.c_str(),
                deproto::api::sweep_mode_name(sweep->mode),
                sweep->point_count(), sweep->job_count(),
                sweep->description.c_str());
  }
}

const char* display_name(const std::string& name) {
  return name.empty() ? "<unnamed>" : name.c_str();
}

/// The pipeline stages before the run, printed as each completes so a
/// system that synthesis rejects still shows its parse and taxonomy
/// diagnostics. --quiet keeps the one-line taxonomy and machine summaries.
void print_stages(const ScenarioSpec& spec, Experiment& experiment,
                  bool quiet) {
  std::printf("scenario: %s (backend=%s, N=%zu, periods=%zu, seed=%llu)\n",
              display_name(spec.name), deproto::api::backend_name(spec.backend),
              spec.n, spec.periods, static_cast<unsigned long long>(spec.seed));
  const Experiment::Resolved& resolved = experiment.resolved();
  if (!quiet) {
    std::printf("parsed system:\n%s", resolved.source.to_string().c_str());
  }
  std::printf(
      "taxonomy: complete=%s, completely-partitionable=%s, "
      "restricted-polynomial=%s\n",
      resolved.taxonomy.complete ? "yes" : "no",
      resolved.taxonomy.completely_partitionable ? "yes" : "no",
      resolved.taxonomy.restricted_polynomial ? "yes" : "no");
  if (!quiet && !resolved.taxonomy.detail.empty()) {
    std::printf("  %s\n", resolved.taxonomy.detail.c_str());
  }

  const Experiment::Artifacts& art = experiment.artifacts();
  std::printf("machine: %zu states, p=%.4g, mean field %s\n",
              art.synthesis.machine.num_states(), art.synthesis.p,
              art.mean_field_verified ? "verified" : "MISMATCH");
  if (!quiet) {
    std::printf("%s", art.synthesis.machine.to_string().c_str());
    for (const std::string& note : art.synthesis.notes) {
      std::printf("note: %s\n", note.c_str());
    }
  }
}

void print_result(const ScenarioSpec& spec, const ExperimentResult& result,
                  bool quiet) {
  if (!quiet) {
    std::printf("%10s", "period");
    for (const std::string& name : result.state_names) {
      std::printf(" %12s", name.c_str());
    }
    std::printf(" %12s\n", "alive");
    const std::size_t periods = result.series.size();
    const std::size_t step = std::max<std::size_t>(1, periods / 20);
    for (std::size_t t = 0; t <= periods; t += step) {
      std::printf("%10zu", t);
      for (const std::size_t c : result.counts_at(t)) {
        std::printf(" %12zu", c);
      }
      const std::size_t alive =
          t == 0 ? spec.n : result.series[t - 1].total_alive;
      std::printf(" %12zu\n", alive);
      if (t != periods && t + step > periods) {
        t = periods - step;  // always print the final period
      }
    }
  }

  std::printf("final: alive=%zu, dominant=%s (%.1f%%)%s", result.final_alive,
              result.state_names[result.convergence.dominant_state].c_str(),
              100.0 * result.convergence.dominant_fraction,
              result.convergence.absorbed ? ", absorbed" : "");
  if (result.convergence.settle_time >= 0.0) {
    std::printf(", settled since period %.0f",
                result.convergence.settle_time);
  }
  std::printf("\n");
  if (result.probes_total > 0) {
    std::printf("probes: %llu total",
                static_cast<unsigned long long>(result.probes_total));
    if (result.tokens.generated > 0) {
      std::printf("; tokens: %llu generated, %llu delivered, %llu dropped",
                  static_cast<unsigned long long>(result.tokens.generated),
                  static_cast<unsigned long long>(result.tokens.delivered),
                  static_cast<unsigned long long>(result.tokens.dropped));
    }
    std::printf("\n");
  }
  if (result.messages_sent > 0) {
    std::printf("messages: %llu sent, %llu dropped\n",
                static_cast<unsigned long long>(result.messages_sent),
                static_cast<unsigned long long>(result.messages_dropped));
  }
}

/// Write the artifacts asked for: --json from `result_json()` and
/// --spec-out from the Scenario/SweepSpec.
bool write_artifacts(const CliOptions& options, const auto& result_json,
                     const auto& spec) {
  return (options.json_out.empty() ||
          write_file(options.json_out, result_json().dump(2))) &&
         (options.spec_out.empty() ||
          write_file(options.spec_out, spec.to_json().dump(2)));
}

ScenarioSpec apply_overrides(ScenarioSpec spec, const CliOptions& options) {
  if (options.n.has_value()) spec = spec.scaled_to(*options.n);
  if (options.periods.has_value()) spec.periods = *options.periods;
  if (options.seed.has_value()) spec.seed = *options.seed;
  if (options.backend.has_value()) spec.backend = *options.backend;
  return spec;
}

int run_one(const ScenarioSpec& spec, const CliOptions& options) {
  Experiment experiment(spec);
  print_stages(spec, experiment, options.quiet);
  const ExperimentResult result = experiment.run();
  print_result(spec, result, options.quiet);
  if (!options.quiet) {
    std::printf("elapsed: %.3fs\n", result.elapsed_seconds);
  }
  // The deterministic JSON form: timing stays on stdout, so rerunning the
  // same spec rewrites an identical file.
  const auto json = [&] { return result.to_json(/*include_timing=*/false); };
  return write_artifacts(options, json, spec) ? 0 : 1;
}

/// --bisect: adaptive threshold search on one numeric axis field. The
/// verdict is the run's convergence flag (ExperimentResult::convergence.
/// absorbed), so the reported threshold is the field value beyond which
/// runs stop absorbing -- the destabilization point of e.g.
/// runtime.message_loss or faults.churn.max_rate for this scenario.
/// The refine step shared by the cold path (run_bisect) and the
/// sweep-seeded path (run_sweep + --bisect): bisect the absorbed verdict
/// over the given bracket and report.
deproto::api::BisectResult refine_threshold(
    const ScenarioSpec& spec, const CliOptions& options,
    const deproto::api::BisectOptions& bisect) {
  const deproto::api::BisectResult result =
      deproto::api::bisect_axis_threshold(
          spec, options.bisect,
          [](const ExperimentResult& r) { return r.convergence.absorbed; },
          bisect);
  if (result.bracketed) {
    std::printf(
        "threshold %.12g (absorbed up to %.12g, lost from %.12g), "
        "%zu runs\n",
        result.threshold, result.lo, result.hi, result.evaluations);
  } else {
    std::printf(
        "no flip in bracket: verdict is one-sided over [%.12g, %.12g], "
        "%zu runs\n",
        bisect.lo, bisect.hi, result.evaluations);
  }
  return result;
}

int run_bisect(const ScenarioSpec& spec, const CliOptions& options) {
  deproto::api::BisectOptions bisect;
  bisect.lo = options.bisect_lo.value_or(0.0);
  bisect.hi = options.bisect_hi.value_or(1.0);
  bisect.max_iterations = options.bisect_iters;
  bisect.tolerance = options.bisect_tol;
  if (!options.quiet) {
    std::printf("bisect %s on %s over [%.12g, %.12g]\n",
                options.bisect.c_str(), display_name(spec.name), bisect.lo,
                bisect.hi);
  }
  const deproto::api::BisectResult result =
      refine_threshold(spec, options, bisect);
  const auto json = [&] {
    return Json::object()
        .set("scenario", Json::string(spec.name))
        .set("field", Json::string(options.bisect))
        .set("lo", Json::number(result.lo))
        .set("hi", Json::number(result.hi))
        .set("threshold", Json::number(result.threshold))
        .set("evaluations", Json::number(result.evaluations))
        .set("bracketed", Json::boolean(result.bracketed));
  };
  return write_artifacts(options, json, spec) ? 0 : 1;
}

std::string coords_label(const deproto::api::SweepCoords& coords) {
  std::string label;
  for (const auto& [field, value] : coords) {
    if (!label.empty()) label += " ";
    label += field + "=" + deproto::api::sweep_value_label(value);
  }
  return label;
}

/// Resolve the result cache from --cache / $DEPROTO_CACHE_DIR; nullptr
/// when caching is off (no directory named, or --no-cache). Throws
/// UsageError when --cache-gc or --cache-max-bytes has no cache to act on,
/// and SpecError when the directory cannot be created.
std::unique_ptr<ResultCache> open_cache(const CliOptions& options) {
  std::string dir = options.no_cache ? std::string() : options.cache_dir;
  if (dir.empty() && !options.no_cache) {
    if (const char* env = std::getenv("DEPROTO_CACHE_DIR")) dir = env;
  }
  if (dir.empty()) {
    if (options.cache_gc || options.cache_max_bytes.has_value()) {
      throw UsageError(std::string(options.cache_gc ? "--cache-gc"
                                                    : "--cache-max-bytes") +
                       " needs a cache (--cache <dir> or $DEPROTO_CACHE_DIR)");
    }
    return nullptr;
  }
  return std::make_unique<ResultCache>(dir);
}

/// Wire the thread count and the cache into `suite`, returning the cache
/// handle (nullptr when caching is off).
std::unique_ptr<ResultCache> configure_execution(const CliOptions& options,
                                                 SuiteOptions* suite) {
  std::unique_ptr<ResultCache> cache = open_cache(options);
  suite->threads = options.threads;
  suite->cache = cache.get();
  if (cache != nullptr && options.cache_max_bytes.has_value()) {
    cache->set_max_bytes(*options.cache_max_bytes);
  }
  return cache;
}

/// The hit/miss line after a cached run ("cache: 12/12 hits, ..."), plus
/// the optional --cache-gc sweep of entries this run did not touch.
void finish_cache(const SweepResult& result, ResultCache* cache,
                  bool cache_gc) {
  if (cache == nullptr) return;
  const std::size_t lookups = result.cache.hits + result.cache.misses;
  std::printf("cache: %zu/%zu hits, %zu misses (%zu corrupt), %zu stored, "
              "%zu skipped [%s]\n",
              result.cache.hits, lookups, result.cache.misses,
              result.cache.corrupt, result.cache.stores,
              result.cache.skipped, cache->dir().string().c_str());
  if (cache->max_bytes() > 0) {
    std::printf("cache-lru: %zu evicted (bound %llu bytes)\n",
                cache->evictions(),
                static_cast<unsigned long long>(cache->max_bytes()));
  }
  if (cache_gc) {
    std::printf("cache-gc: pruned %zu stale entries\n", cache->gc_unused());
  }
}

/// Run a suite with the --jsonl sink (when `path` is set) attached;
/// nullopt, after an error line, when the sink cannot be written.
template <class Run>
std::optional<SweepResult> run_with_jsonl(SuiteOptions suite,
                                          const std::string& path, Run run) {
  if (path.empty()) return run(SuiteRunner(suite));
  std::ofstream jsonl(path);
  suite.jsonl = &jsonl;
  std::optional<SweepResult> result;
  if (jsonl) result = run(SuiteRunner(suite));
  jsonl.close();
  if (!jsonl || result->jsonl_failed) {
    std::fprintf(stderr, "error: writing %s failed\n", path.c_str());
    return std::nullopt;
  }
  return result;
}

/// Execute a sweep through SuiteRunner: per-job progress lines and every
/// sink in job-index order, per-point aggregates, then throughput. The
/// --json document is the deterministic SweepResult form (no timing), so
/// --threads 1 and --threads 8 write byte-identical files.
int run_sweep(SweepSpec sweep, const CliOptions& options) {
  sweep.base = apply_overrides(std::move(sweep.base), options);
  if (options.repeat.has_value()) sweep.replicates = *options.repeat;

  const std::size_t total_jobs = sweep.job_count();
  std::printf("sweep: %s  (%zu points x %zu replicates = %zu jobs)\n",
              display_name(sweep.name), sweep.point_count(), sweep.replicates,
              total_jobs);

  SuiteOptions suite;
  // Aggregates + sinks are the product here; each job's per-period
  // series is dropped as soon as it flushes, so long sweeps never hold
  // more than the out-of-order window in memory.
  suite.store_results = false;
  const std::unique_ptr<ResultCache> cache =
      configure_execution(options, &suite);
  if (!options.quiet) {
    suite.on_result = [total_jobs](const JobOutcome& outcome) {
      const std::string status =
          outcome.ok ? (outcome.cached ? "ok (cached)" : "ok")
                     : "FAILED: " + outcome.error;
      std::printf("  [%3zu/%zu] %-44s %s (%.2fs)\n", outcome.job.index + 1,
                  total_jobs, outcome.job.spec.name.c_str(), status.c_str(),
                  outcome.elapsed_seconds);
    };
  }

  const std::optional<SweepResult> ran = run_with_jsonl(
      suite, options.jsonl_out,
      [&](const SuiteRunner& runner) { return runner.run(sweep); });
  if (!ran.has_value()) return 1;
  const SweepResult& result = *ran;

  std::printf("\n%-44s %4s %12s %12s %10s\n", "point", "reps",
              "settle-time", "dominant", "alive");
  for (const deproto::api::PointSummary& point : result.points) {
    const deproto::api::Aggregate* settle = point.metric("settle_time");
    const deproto::api::Aggregate* dominant =
        point.metric("dominant_fraction");
    const deproto::api::Aggregate* alive = point.metric("final_alive");
    std::printf("%-44s %4zu %6.1f ±%4.1f %11.3f %10.0f\n",
                coords_label(point.coords).c_str(), point.replicates,
                settle != nullptr ? settle->mean : 0.0,
                settle != nullptr ? settle->stddev : 0.0,
                dominant != nullptr ? dominant->mean : 0.0,
                alive != nullptr ? alive->mean : 0.0);
  }
  std::printf("total: %zu jobs (%zu failed) in %.2fs -- %.2f jobs/s on "
              "%zu thread%s\n",
              result.jobs_total, result.jobs_failed, result.elapsed_seconds,
              result.jobs_per_second(), result.threads,
              result.threads == 1 ? "" : "s");
  finish_cache(result, cache.get(), options.cache_gc);

  for (const JobOutcome& outcome : result.jobs) {
    if (!outcome.ok) {
      std::fprintf(stderr, "error: job %zu (%s): %s\n", outcome.job.index,
                   outcome.job.spec.name.c_str(), outcome.error.c_str());
    }
  }
  const auto json = [&] { return result.to_json(/*include_timing=*/false); };
  if (!write_artifacts(options, json, sweep) || result.jobs_failed != 0) {
    return 1;
  }

  if (!options.bisect.empty()) {
    // Sweep-seeded threshold refinement: the grid already localized the
    // flip of the absorbed verdict, so seed the bisection bracket from
    // the per-point absorbed means instead of starting at [0, 1].
    const std::optional<deproto::api::BisectOptions> seeded =
        deproto::api::bracket_from_sweep(result, options.bisect);
    const bool explicit_bracket =
        options.bisect_lo.has_value() && options.bisect_hi.has_value();
    if (!seeded.has_value() && !explicit_bracket) {
      std::fprintf(stderr,
                   "error: the sweep gives no bracket for %s (not a "
                   "numeric axis of the grid, or the absorbed verdict "
                   "does not flip monotonically across it); pass "
                   "--bisect-lo/--bisect-hi to bisect anyway\n",
                   options.bisect.c_str());
      return 1;
    }
    deproto::api::BisectOptions bisect =
        seeded.value_or(deproto::api::BisectOptions{});
    if (options.bisect_lo.has_value()) bisect.lo = *options.bisect_lo;
    if (options.bisect_hi.has_value()) bisect.hi = *options.bisect_hi;
    bisect.max_iterations = options.bisect_iters;
    bisect.tolerance = options.bisect_tol;
    std::printf("\nbisect %s on %s over [%.12g, %.12g]%s\n",
                options.bisect.c_str(), display_name(sweep.base.name),
                bisect.lo, bisect.hi,
                seeded.has_value() && !explicit_bracket
                    ? " (bracket seeded from the grid)"
                    : "");
    (void)refine_threshold(sweep.base, options, bisect);
  }
  return 0;
}

/// The registry-rot guard: list, then run every scenario at N <= 500 and
/// <= 20 periods on EVERY backend -- the full {scenario} x {sync, event,
/// count} matrix the unified Simulator interface promises -- through the
/// SuiteRunner engine (so the smoke also exercises the pool + ordered
/// sinks). Registered as a CTest smoke test.
int run_smoke(const CliOptions& options) {
  list_registry();

  std::vector<SweepJob> jobs;
  for (const std::string& name : deproto::api::registry_names()) {
    for (const deproto::api::Backend backend :
         {deproto::api::Backend::Sync, deproto::api::Backend::Event,
          deproto::api::Backend::Count}) {
      ScenarioSpec spec = deproto::api::registry_get(name);
      spec.backend = backend;
      spec = spec.scaled_to(std::min<std::size_t>(spec.n, 500));
      spec.periods = std::min<std::size_t>(spec.periods, 20);
      // Keep scheduled faults inside the shortened run so they execute.
      for (deproto::sim::MassiveFailure& f : spec.faults.massive_failures) {
        f.time = std::min(f.time, static_cast<double>(spec.periods) / 2.0);
      }
      SweepJob job;
      job.index = jobs.size();
      job.point = jobs.size();  // every combination is its own point
      job.coords.emplace_back("scenario", Json::string(name));
      job.coords.emplace_back(
          "backend", Json::string(deproto::api::backend_name(backend)));
      spec.name = name + "/" + deproto::api::backend_name(backend);
      job.spec = std::move(spec);
      jobs.push_back(std::move(job));
    }
  }

  SuiteOptions suite;
  const std::unique_ptr<ResultCache> cache =
      configure_execution(options, &suite);
  std::printf("\n");
  const std::size_t expected = jobs.size();
  suite.on_result = [expected](const JobOutcome& outcome) {
    std::printf("smoke [%2zu/%zu] %-44s %s\n", outcome.job.index + 1,
                expected, outcome.job.spec.name.c_str(),
                outcome.ok ? (outcome.cached ? "ok (cached)" : "ok")
                           : outcome.error.c_str());
  };
  const std::optional<SweepResult> ran =
      run_with_jsonl(suite, options.jsonl_out, [&](const SuiteRunner& runner) {
        return runner.run_jobs(std::move(jobs), "registry-smoke");
      });
  if (!ran.has_value()) return 1;
  const SweepResult& result = *ran;
  finish_cache(result, cache.get(), options.cache_gc);
  if (!options.json_out.empty() &&
      !write_file(options.json_out,
                  result.to_json(/*include_timing=*/false).dump(2))) {
    return 1;
  }

  bool failed = result.jobs_failed > 0;
  for (const JobOutcome& outcome : result.jobs) {
    if (!outcome.ok) continue;
    if (!outcome.result.mean_field_verified) {
      std::fprintf(stderr, "error: %s: mean-field verification failed\n",
                   outcome.job.spec.name.c_str());
      failed = true;
    }
    if (outcome.result.series.size() < outcome.job.spec.periods) {
      std::fprintf(stderr, "error: %s: recorded %zu of %zu periods\n",
                   outcome.job.spec.name.c_str(),
                   outcome.result.series.size(), outcome.job.spec.periods);
      failed = true;
    }
  }
  if (failed) return 1;
  std::printf("\nsmoke: all %zu scenario/backend combinations ran "
              "(%.2fs, %.2f jobs/s on %zu thread%s)\n",
              expected, result.elapsed_seconds, result.jobs_per_second(),
              result.threads, result.threads == 1 ? "" : "s");
  return 0;
}

/// The stderr prefix for an exception that ends a run (exit 1).
const char* error_kind(const std::exception& e) {
  if (dynamic_cast<const deproto::api::JsonError*>(&e)) return "json error";
  if (dynamic_cast<const deproto::api::SpecError*>(&e)) return "spec error";
  if (dynamic_cast<const deproto::ode::ParseError*>(&e)) return "parse error";
  if (dynamic_cast<const deproto::core::SynthesisError*>(&e)) {
    return "synthesis error";
  }
  return "error";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  deproto::cli::FlagTable flags = flag_table(&options);
  if (!flags.parse(argc, argv)) return usage(argv[0]);
  const unsigned mode = run_mode(options);
  if (!flags.check_mode(mode, kModeNames[std::countr_zero(mode)])) {
    return usage(argv[0]);
  }

  try {
    if (mode == kSmoke) return run_smoke(options);
    if (mode == kList) {
      list_registry();
      return 0;
    }
    const std::size_t sources = options.scenarios.size() +
                                (options.spec_file.empty() ? 0 : 1) +
                                (options.ode_file.empty() ? 0 : 1) +
                                (options.sweep.empty() ? 0 : 1);
    if (sources != 1) {
      throw UsageError(
          "give exactly one of <scenario>, --spec, --ode or --sweep");
    }

    if (!options.sweep.empty()) {
      // A registered preset name, or a SweepSpec JSON file.
      if (const SweepSpec* preset =
              deproto::api::sweep_registry_find(options.sweep)) {
        return run_sweep(*preset, options);
      }
      return run_sweep(
          SweepSpec::from_json(Json::parse(read_file(options.sweep))),
          options);
    }

    ScenarioSpec spec;
    if (!options.spec_file.empty()) {
      spec = ScenarioSpec::from_json(Json::parse(read_file(options.spec_file)));
    } else if (!options.ode_file.empty()) {
      spec.source.ode_text = read_file(options.ode_file);
    } else {
      spec = deproto::api::registry_get(options.scenarios.front());
    }
    if (mode == kBisect) {
      return run_bisect(apply_overrides(std::move(spec), options), options);
    }
    if (mode == kSweep) {
      // --repeat lifts the single source into a replicate-only sweep:
      // same spec, split-derived seeds, aggregated output.
      SweepSpec sweep;
      sweep.name = spec.name + "-x" + std::to_string(*options.repeat);
      sweep.base = std::move(spec);
      sweep.replicates = *options.repeat;
      return run_sweep(std::move(sweep), options);
    }
    return run_one(apply_overrides(std::move(spec), options), options);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fflush(stdout);  // the stages printed so far come first
    std::fprintf(stderr, "%s: %s\n", error_kind(e), e.what());
  }
  return 1;
}
