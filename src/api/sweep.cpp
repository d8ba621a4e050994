#include "api/sweep.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "api/experiment.hpp"
#include "api/suite_runner.hpp"
#include "sim/rng.hpp"

namespace deproto::api {

namespace {

/// Splits "prefix[K].suffix" into (K, suffix) when `field` starts with
/// `prefix` + '['; returns false otherwise. The suffix excludes the dot.
bool parse_indexed(const std::string& field, const std::string& prefix,
                   std::size_t* index, std::string* suffix) {
  if (field.size() <= prefix.size() + 1 ||
      field.compare(0, prefix.size(), prefix) != 0 ||
      field[prefix.size()] != '[') {
    return false;
  }
  const std::size_t close = field.find(']', prefix.size() + 1);
  if (close == std::string::npos) {
    throw SpecError("sweep axis: malformed index in field: " + field);
  }
  const std::string digits =
      field.substr(prefix.size() + 1, close - prefix.size() - 1);
  if (digits.empty()) {
    throw SpecError("sweep axis: empty index in field: " + field);
  }
  char* end = nullptr;
  *index = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    throw SpecError("sweep axis: bad index '" + digits +
                    "' in field: " + field);
  }
  if (close + 1 < field.size()) {
    if (field[close + 1] != '.') {
      throw SpecError("sweep axis: expected '.' after ']' in field: " +
                      field);
    }
    *suffix = field.substr(close + 2);
  } else {
    suffix->clear();
  }
  return true;
}

std::string job_name(const SweepSpec& sweep, const SweepJob& job) {
  std::string name = sweep.base.name.empty() ? sweep.name : sweep.base.name;
  for (const auto& [field, value] : job.coords) {
    name += "/" + field + "=" + sweep_value_label(value);
  }
  if (sweep.replicates > 1) {
    name += "/r" + std::to_string(job.replicate);
  }
  return name;
}

}  // namespace

std::string sweep_value_label(const Json& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", value.as_number());
    return buf;
  }
  return value.dump();
}

const char* sweep_mode_name(SweepMode mode) {
  return mode == SweepMode::Grid ? "grid" : "zip";
}

SweepMode sweep_mode_from_name(const std::string& name) {
  if (name == "grid") return SweepMode::Grid;
  if (name == "zip") return SweepMode::Zip;
  throw SpecError("unknown sweep mode: " + name + " (want grid | zip)");
}

std::vector<std::string> sweep_axis_fields() {
  return {
      "n",
      "periods",
      "seed",
      "backend",
      "clock_drift",
      "source.params[K]",
      "synthesis.p",
      "synthesis.failure_rate",
      "runtime.message_loss",
      "runtime.token_ttl",
      "faults.massive_failures[K].time",
      "faults.massive_failures[K].fraction",
      "faults.crash_recovery.crash_prob",
      "faults.crash_recovery.mean_downtime_periods",
      "faults.churn.enabled",
      "faults.churn.hours",
      "faults.churn.min_rate",
      "faults.churn.max_rate",
      "faults.churn.mean_downtime_hours",
      "faults.churn.seed",
      "faults.churn.periods_per_hour",
  };
}

void apply_axis_value(ScenarioSpec& spec, const std::string& field,
                      const Json& value) {
  // null reads as NaN through as_number (the non-finite encoding), and a
  // non-finite number would flow into the spec only to dump as null --
  // making distinct specs alias under one cache key and emitting JSON
  // that spec parsing (which rejects null numerics) cannot re-load.
  if (value.is_null() ||
      (value.is_number() && !std::isfinite(value.as_number()))) {
    throw SpecError("axis " + field + ": value must be finite, not null");
  }
  try {
    std::size_t k = 0;
    std::string rest;
    if (field == "n") {
      spec = spec.scaled_to(value.as_size());
    } else if (field == "periods") {
      spec.periods = value.as_size();
    } else if (field == "seed") {
      spec.seed = value.as_u64();
    } else if (field == "backend") {
      spec.backend = backend_from_name(value.as_string());
    } else if (field == "clock_drift") {
      spec.clock_drift = value.as_number();
    } else if (parse_indexed(field, "source.params", &k, &rest)) {
      if (!rest.empty()) {
        throw SpecError("sweep axis: unexpected suffix ." + rest);
      }
      if (k >= spec.source.params.size()) {
        throw SpecError("sweep axis: source.params[" + std::to_string(k) +
                        "] out of range (base spec lists " +
                        std::to_string(spec.source.params.size()) +
                        " params; give explicit base params to sweep one)");
      }
      spec.source.params[k] = value.as_number();
    } else if (field == "synthesis.p") {
      spec.synthesis.p = value.as_number();
    } else if (field == "synthesis.failure_rate") {
      spec.synthesis.failure_rate = value.as_number();
    } else if (field == "runtime.message_loss") {
      spec.runtime.message_loss = value.as_number();
    } else if (field == "runtime.token_ttl") {
      spec.runtime.tokens.ttl = static_cast<unsigned>(value.as_size());
    } else if (parse_indexed(field, "faults.massive_failures", &k, &rest)) {
      if (k >= spec.faults.massive_failures.size()) {
        throw SpecError("sweep axis: faults.massive_failures[" +
                        std::to_string(k) +
                        "] out of range (base spec schedules " +
                        std::to_string(spec.faults.massive_failures.size()) +
                        ")");
      }
      if (rest == "time") {
        spec.faults.massive_failures[k].time = value.as_number();
      } else if (rest == "fraction") {
        spec.faults.massive_failures[k].fraction = value.as_number();
      } else {
        throw SpecError("sweep axis: unknown massive_failures field ." +
                        rest + " (want .time | .fraction)");
      }
    } else if (field == "faults.crash_recovery.crash_prob") {
      spec.faults.crash_recovery.crash_prob = value.as_number();
    } else if (field == "faults.crash_recovery.mean_downtime_periods") {
      spec.faults.crash_recovery.mean_downtime_periods = value.as_number();
    } else if (field == "faults.churn.enabled") {
      spec.faults.churn.enabled = value.as_bool();
    } else if (field == "faults.churn.hours") {
      spec.faults.churn.hours = value.as_number();
    } else if (field == "faults.churn.min_rate") {
      spec.faults.churn.min_rate = value.as_number();
    } else if (field == "faults.churn.max_rate") {
      spec.faults.churn.max_rate = value.as_number();
    } else if (field == "faults.churn.mean_downtime_hours") {
      spec.faults.churn.mean_downtime_hours = value.as_number();
    } else if (field == "faults.churn.seed") {
      spec.faults.churn.seed = value.as_u64();
    } else if (field == "faults.churn.periods_per_hour") {
      spec.faults.churn.periods_per_hour = value.as_number();
    } else {
      std::string known;
      for (const std::string& f : sweep_axis_fields()) {
        known += known.empty() ? f : ", " + f;
      }
      throw SpecError("unknown sweep axis field: " + field + " (known: " +
                      known + ")");
    }
  } catch (const JsonError& e) {
    throw SpecError("sweep axis " + field + ": " + e.what());
  }
}

std::uint64_t replicate_seed(std::uint64_t base_seed, std::size_t replicate) {
  if (replicate == 0) return base_seed;
  sim::Rng stream = sim::Rng(base_seed).split(replicate);
  // Clamp derived seeds to 53 bits: specs travel as JSON (the result
  // cache keys and verifies entries by the spec dump), whose numbers are
  // doubles that are only exact up to 2^53. A full-width seed would
  // silently round in the dump, so two replicates could share one cache
  // entry and a spec read back from JSON would simulate a different
  // replicate than the one that was expanded.
  return stream.engine()() & ((std::uint64_t{1} << 53) - 1);
}

std::size_t SweepSpec::point_count() const {
  if (axes.empty()) return 1;
  std::size_t points = mode == SweepMode::Grid ? 1 : axes.front().values.size();
  for (const SweepAxis& axis : axes) {
    if (axis.values.empty()) {
      throw SpecError("sweep axis " + axis.field + " has no values");
    }
    for (const SweepAxis& other : axes) {
      if (&other == &axis) break;
      if (other.field == axis.field) {
        throw SpecError("sweep axis " + axis.field +
                        " listed twice (values would double-apply)");
      }
    }
    if (mode == SweepMode::Grid) {
      points *= axis.values.size();
    } else if (axis.values.size() != points) {
      throw SpecError("zip sweep: axis " + axis.field + " has " +
                      std::to_string(axis.values.size()) + " values, axis " +
                      axes.front().field + " has " + std::to_string(points));
    }
  }
  return points;
}

std::size_t SweepSpec::job_count() const {
  if (replicates == 0) {
    throw SpecError("sweep " + name + ": replicates must be >= 1");
  }
  return point_count() * replicates;
}

std::vector<SweepJob> SweepSpec::expand() const {
  const std::size_t points = point_count();
  if (replicates == 0) {
    throw SpecError("sweep " + name + ": replicates must be >= 1");
  }

  // Grid strides: first axis outermost (slowest-varying), so the job list
  // reads like the equivalent nested for loops.
  std::vector<std::size_t> stride(axes.size(), 1);
  if (mode == SweepMode::Grid) {
    for (std::size_t a = axes.size(); a-- > 1;) {
      stride[a - 1] = stride[a] * axes[a].values.size();
    }
  }

  std::vector<SweepJob> jobs;
  jobs.reserve(points * replicates);
  for (std::size_t p = 0; p < points; ++p) {
    ScenarioSpec point_spec = base;
    SweepCoords coords;
    coords.reserve(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::size_t v =
          mode == SweepMode::Grid ? (p / stride[a]) % axes[a].values.size()
                                  : p;
      apply_axis_value(point_spec, axes[a].field, axes[a].values[v]);
      coords.emplace_back(axes[a].field, axes[a].values[v]);
    }
    for (std::size_t r = 0; r < replicates; ++r) {
      SweepJob job;
      job.index = jobs.size();
      job.point = p;
      job.replicate = r;
      job.coords = coords;
      job.spec = point_spec;
      job.spec.seed = replicate_seed(point_spec.seed, r);
      job.spec.name = job_name(*this, job);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

Json SweepSpec::to_json() const {
  Json j = Json::object();
  if (!name.empty()) j.set("name", Json::string(name));
  if (!description.empty()) j.set("description", Json::string(description));
  j.set("base", base.to_json());
  j.set("mode", Json::string(sweep_mode_name(mode)));
  Json axis_arr = Json::array();
  for (const SweepAxis& axis : axes) {
    Json values = Json::array();
    for (const Json& v : axis.values) values.push(v);
    axis_arr.push(Json::object()
                      .set("field", Json::string(axis.field))
                      .set("values", std::move(values)));
  }
  j.set("axes", std::move(axis_arr));
  j.set("replicates", Json::number(replicates));
  return j;
}

SweepSpec SweepSpec::from_json(const Json& j) {
  SweepSpec sweep;
  sweep.name = j.get_or("name", sweep.name);
  sweep.description = j.get_or("description", sweep.description);
  if (j.contains("base")) sweep.base = ScenarioSpec::from_json(j.at("base"));
  sweep.mode =
      sweep_mode_from_name(j.get_or("mode", std::string("grid")));
  if (j.contains("axes")) {
    for (const Json& e : j.at("axes").elements()) {
      SweepAxis axis;
      axis.field = e.at("field").as_string();
      for (const Json& v : e.at("values").elements()) {
        axis.values.push_back(v);
      }
      sweep.axes.push_back(std::move(axis));
    }
  }
  if (j.contains("replicates")) {
    sweep.replicates = j.at("replicates").as_size();
  }
  return sweep;
}

BisectResult bisect_axis(const std::function<bool(double)>& holds,
                         const BisectOptions& options) {
  if (!std::isfinite(options.lo) || !std::isfinite(options.hi) ||
      options.lo > options.hi) {
    throw SpecError("bisect_axis: want finite lo <= hi");
  }
  BisectResult result;
  result.lo = options.lo;
  result.hi = options.hi;
  const bool held_lo = holds(options.lo);
  ++result.evaluations;
  const bool held_hi = holds(options.hi);
  ++result.evaluations;
  if (!held_lo || held_hi) {
    // One-sided: no flip inside [lo, hi]. Report the surviving endpoint
    // (hi when the predicate never failed, lo when it never held).
    result.threshold = held_hi ? options.hi : options.lo;
    return result;
  }
  result.bracketed = true;
  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    if (result.hi - result.lo <= options.tolerance) break;
    const double mid = result.lo + (result.hi - result.lo) / 2.0;
    if (mid <= result.lo || mid >= result.hi) break;  // float resolution
    if (holds(mid)) {
      result.lo = mid;
    } else {
      result.hi = mid;
    }
    ++result.evaluations;
  }
  result.threshold = result.lo + (result.hi - result.lo) / 2.0;
  return result;
}

BisectResult bisect_axis_threshold(
    const ScenarioSpec& base, const std::string& field,
    const std::function<bool(const ExperimentResult&)>& predicate,
    const BisectOptions& options) {
  return bisect_axis(
      [&](double value) {
        ScenarioSpec spec = base;
        apply_axis_value(spec, field, Json::number(value));
        Experiment experiment(std::move(spec));
        return predicate(experiment.run());
      },
      options);
}

std::optional<BisectOptions> bracket_from_sweep(const SweepResult& result,
                                                const std::string& field,
                                                const std::string& metric,
                                                double hold_above) {
  bool have_hold = false;
  bool have_fail = false;
  double max_hold = 0.0;
  double min_fail = 0.0;
  for (const PointSummary& point : result.points) {
    std::optional<double> value;
    for (const auto& [name, coord] : point.coords) {
      if (name == field && coord.is_number()) value = coord.as_number();
    }
    if (!value.has_value() || !std::isfinite(*value)) continue;
    const Aggregate* aggregate = point.metric(metric);
    if (aggregate == nullptr || aggregate->count == 0) continue;
    if (aggregate->mean >= hold_above) {
      if (!have_hold || *value > max_hold) max_hold = *value;
      have_hold = true;
    } else {
      if (!have_fail || *value < min_fail) min_fail = *value;
      have_fail = true;
    }
  }
  if (!have_hold || !have_fail || max_hold >= min_fail) return std::nullopt;
  BisectOptions options;
  options.lo = max_hold;
  options.hi = min_fail;
  return options;
}

}  // namespace deproto::api
