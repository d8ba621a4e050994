#pragma once

// Declarative parameter sweeps: the second tier of the experiment facade.
// Every figure in the paper is a sweep -- over N, failure fraction, churn
// rate, initial seeds -- so a SweepSpec describes a *family* of runs: one
// base ScenarioSpec plus axes (spec fields with value lists, combined as a
// grid or zipped), and a replicate count whose per-replicate seeds are
// derived deterministically via sim::Rng stream splitting. expand() turns
// the spec into a flat, deterministically ordered job list; SuiteRunner
// (api/suite_runner.hpp) executes it on a worker pool.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/json.hpp"
#include "api/spec.hpp"

namespace deproto::api {

struct ExperimentResult;  // api/experiment.hpp
struct SweepResult;       // api/suite_runner.hpp

/// How the axes combine into sweep points. Grid takes the cartesian
/// product (first axis outermost / slowest-varying); Zip walks all axes in
/// lockstep (every axis must have the same length).
enum class SweepMode { Grid, Zip };

[[nodiscard]] const char* sweep_mode_name(SweepMode mode);
[[nodiscard]] SweepMode sweep_mode_from_name(const std::string& name);

/// One sweep dimension: a ScenarioSpec field (dotted path, see
/// sweep_axis_fields()) and the values it takes. Values are Json so one
/// axis type covers numbers ("n", "synthesis.p"), strings ("backend") and
/// booleans ("faults.churn.enabled").
struct SweepAxis {
  std::string field;
  std::vector<Json> values;

  friend bool operator==(const SweepAxis&, const SweepAxis&) = default;
};

/// The coordinates of one sweep point: (field, value) per axis, in axis
/// order.
using SweepCoords = std::vector<std::pair<std::string, Json>>;

/// One expanded job: a fully concrete ScenarioSpec plus where it sits in
/// the sweep. Jobs are ordered point-major (point 0 replicate 0, point 0
/// replicate 1, ..., point 1 replicate 0, ...), and that order is the
/// determinism contract: results are reported by job index regardless of
/// how many threads execute them.
struct SweepJob {
  std::size_t index = 0;      // position in the expanded job list
  std::size_t point = 0;      // sweep-point index (axis combination)
  std::size_t replicate = 0;  // replicate index within the point
  SweepCoords coords;
  ScenarioSpec spec;
};

struct SweepSpec {
  std::string name;
  std::string description;
  ScenarioSpec base;
  SweepMode mode = SweepMode::Grid;
  std::vector<SweepAxis> axes;  // empty means one point: the base spec
  /// Runs per sweep point. Replicate 0 keeps the point's own seed (so a
  /// one-replicate sweep point reproduces a direct Experiment run);
  /// replicate r > 0 runs with replicate_seed(point_seed, r).
  std::size_t replicates = 1;

  /// Points = grid product / zip length; throws SpecError on an empty or
  /// mismatched axis, or a grid product past SIZE_MAX.
  [[nodiscard]] std::size_t point_count() const;
  /// point_count() * replicates; throws SpecError on zero replicates or
  /// a product past SIZE_MAX.
  [[nodiscard]] std::size_t job_count() const;
  /// The flat job list, in the deterministic point-major order above.
  /// Throws SpecError on unknown axis fields or unappliable values.
  [[nodiscard]] std::vector<SweepJob> expand() const;

  [[nodiscard]] Json to_json() const;
  static SweepSpec from_json(const Json& j);

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

/// Every field path a SweepAxis may name, for --list style discovery and
/// error messages. Setting "n" rescales initial_counts proportionally
/// (ScenarioSpec::scaled_to); "source.params[K]" and
/// "faults.massive_failures[K].{time,fraction}" index into the base
/// spec's existing entries.
[[nodiscard]] std::vector<std::string> sweep_axis_fields();

/// Set one axis field on a spec. Throws SpecError for unknown fields,
/// out-of-range indices, or type mismatches.
void apply_axis_value(ScenarioSpec& spec, const std::string& field,
                      const Json& value);

/// Compact rendering of one coordinate value for labels and job names
/// ("25000", "0.2", "event"); numbers use %.12g, unlike the full-precision
/// %.17g of Json::dump.
[[nodiscard]] std::string sweep_value_label(const Json& value);

/// The per-replicate seed derivation: replicate 0 keeps `base_seed`;
/// replicate r > 0 draws from sim::Rng(base_seed).split(r), so replicate
/// streams are decorrelated but fully determined by (base_seed, r).
[[nodiscard]] std::uint64_t replicate_seed(std::uint64_t base_seed,
                                           std::size_t replicate);

/// Adaptive sweep starter: where a fixed SweepAxis samples a value list,
/// bisection *finds* the value where a verdict flips -- e.g. the churn
/// rate beyond which the convergence verdict fails -- to a chosen
/// resolution in O(log(range / tolerance)) runs instead of a dense grid.
struct BisectOptions {
  double lo = 0.0;  // predicate is expected to hold here
  double hi = 1.0;  // ... and to fail here
  /// Midpoint evaluations after the two endpoint checks.
  std::size_t max_iterations = 20;
  /// Stop early once hi - lo <= tolerance (0 = iterate to max_iterations).
  double tolerance = 0.0;
};

struct BisectResult {
  double lo = 0.0;         // largest value where the predicate held
  double hi = 0.0;         // smallest value where it failed
  double threshold = 0.0;  // midpoint of the final [lo, hi] bracket
  std::size_t evaluations = 0;  // predicate calls, endpoints included
  /// True when the endpoints bracketed a flip (held at lo, failed at hi);
  /// false means the predicate is one-sided over [lo, hi] and threshold
  /// just reports the surviving endpoint.
  bool bracketed = false;
};

/// Bisect `holds` (assumed monotone: true on [lo, threshold), false on
/// (threshold, hi]) down to the options' resolution. Throws SpecError
/// when options.lo > options.hi or either bound is non-finite.
[[nodiscard]] BisectResult bisect_axis(
    const std::function<bool(double)>& holds, const BisectOptions& options);

/// Experiment-driven bisection: applies each candidate value to `field`
/// of `base` (apply_axis_value), runs the experiment, and feeds the
/// result to `predicate`. Axis values ride through apply_axis_value, so
/// any numeric sweep_axis_fields() entry works ("n" included -- values
/// round through the Json number path).
[[nodiscard]] BisectResult bisect_axis_threshold(
    const ScenarioSpec& base, const std::string& field,
    const std::function<bool(const ExperimentResult&)>& predicate,
    const BisectOptions& options);

/// Seed a bisect bracket from an already-run sweep instead of starting
/// cold: scan `result`'s per-point aggregates for points whose coords set
/// `field` to a number, call a point "holding" when the mean of `metric`
/// (the "absorbed" replicate fraction by default) is >= hold_above, and
/// return the tightest [largest holding value, smallest failing value]
/// bracket for bisect_axis_threshold to refine. nullopt when the field
/// never appears as a numeric coordinate, the verdict is one-sided over
/// the grid (nothing to refine), or the grid is non-monotone in `field`
/// (a failing value below a holding one -- e.g. the verdict also depends
/// on another axis), so a seeded bracket would not actually bracket.
/// max_iterations / tolerance are left at their defaults for the caller.
[[nodiscard]] std::optional<BisectOptions> bracket_from_sweep(
    const SweepResult& result, const std::string& field,
    const std::string& metric = "absorbed", double hold_above = 0.5);

}  // namespace deproto::api
