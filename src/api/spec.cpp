#include "api/spec.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "ode/catalog.hpp"
#include "ode/parser.hpp"

namespace deproto::api {

namespace {

double param_or(const std::vector<double>& params, std::size_t index,
                double fallback) {
  return index < params.size() ? params[index] : fallback;
}

/// Spec documents are inputs, not measurements: a non-finite number (an
/// explicit null, which reads back as NaN) is a configuration error and
/// fails loudly here -- unlike result documents, where null metrics
/// degrade field by field. Also keeps NaN out of canonical spec JSON, so
/// cache keys only ever address finite, distinguishable specs.
double finite(double v, const char* field) {
  if (!std::isfinite(v)) {
    throw SpecError(std::string(field) + ": must be a finite number");
  }
  return v;
}

Json synthesis_to_json(const core::SynthesisOptions& o) {
  Json j = Json::object();
  if (o.p.has_value()) j.set("p", Json::number(*o.p));
  j.set("failure_rate", Json::number(o.failure_rate));
  j.set("allow_tokenizing", Json::boolean(o.allow_tokenizing));
  j.set("auto_rewrite", Json::boolean(o.auto_rewrite));
  j.set("slack_name", Json::string(o.slack_name));
  if (!o.push_pull.empty()) {
    Json pairs = Json::array();
    for (const core::PushPullSpec& s : o.push_pull) {
      pairs.push(Json::object()
                     .set("x", Json::string(s.state_x))
                     .set("y", Json::string(s.state_y)));
    }
    j.set("push_pull", std::move(pairs));
  }
  return j;
}

core::SynthesisOptions synthesis_from_json(const Json& j) {
  core::SynthesisOptions o;
  if (j.contains("p")) o.p = finite(j.at("p").as_number(), "synthesis.p");
  o.failure_rate = finite(j.get_or("failure_rate", o.failure_rate),
                          "synthesis.failure_rate");
  o.allow_tokenizing = j.get_or("allow_tokenizing", o.allow_tokenizing);
  o.auto_rewrite = j.get_or("auto_rewrite", o.auto_rewrite);
  o.slack_name = j.get_or("slack_name", o.slack_name);
  if (j.contains("push_pull")) {
    for (const Json& e : j.at("push_pull").elements()) {
      o.push_pull.push_back(core::PushPullSpec{e.at("x").as_string(),
                                               e.at("y").as_string()});
    }
  }
  return o;
}

Json runtime_to_json(const sim::RuntimeOptions& o) {
  Json j = Json::object();
  j.set("message_loss", Json::number(o.message_loss));
  j.set("token_mode",
        Json::string(o.tokens.mode == sim::TokenRouting::Mode::Directory
                         ? "directory"
                         : "random_walk_ttl"));
  j.set("token_ttl", Json::number(static_cast<double>(o.tokens.ttl)));
  j.set("simultaneous_updates", Json::boolean(o.simultaneous_updates));
  // Only serialized when enabled, keeping the cache keys of every spec
  // that predates the static verifier byte-stable.
  if (o.verify_static) j.set("verify_static", Json::boolean(true));
  if (o.verify_exact) j.set("verify_exact", Json::boolean(true));
  return j;
}

sim::RuntimeOptions runtime_from_json(const Json& j) {
  sim::RuntimeOptions o;
  o.message_loss = finite(j.get_or("message_loss", o.message_loss),
                          "runtime.message_loss");
  const std::string mode = j.get_or("token_mode", std::string("directory"));
  if (mode == "directory") {
    o.tokens.mode = sim::TokenRouting::Mode::Directory;
  } else if (mode == "random_walk_ttl") {
    o.tokens.mode = sim::TokenRouting::Mode::RandomWalkTtl;
  } else {
    throw SpecError("unknown token_mode: " + mode);
  }
  if (j.contains("token_ttl")) {
    // as_size rejects null/NaN/fractions before the narrowing cast (a
    // raw static_cast<unsigned> of NaN would be undefined behavior).
    o.tokens.ttl = static_cast<unsigned>(j.at("token_ttl").as_size());
  }
  o.simultaneous_updates =
      j.get_or("simultaneous_updates", o.simultaneous_updates);
  o.verify_static = j.get_or("verify_static", o.verify_static);
  o.verify_exact = j.get_or("verify_exact", o.verify_exact);
  validate_runtime(o);
  return o;
}

Json network_to_json(const NetworkSpec& o) {
  Json j = Json::object();
  j.set("latency_min", Json::number(o.latency_min));
  j.set("latency_max", Json::number(o.latency_max));
  j.set("period_ms", Json::number(o.period_ms));
  j.set("probe_timeout", Json::number(o.probe_timeout));
  return j;
}

NetworkSpec network_from_json(const Json& j) {
  NetworkSpec o;
  o.latency_min =
      finite(j.get_or("latency_min", o.latency_min), "network.latency_min");
  o.latency_max =
      finite(j.get_or("latency_max", o.latency_max), "network.latency_max");
  o.period_ms =
      finite(j.get_or("period_ms", o.period_ms), "network.period_ms");
  o.probe_timeout = finite(j.get_or("probe_timeout", o.probe_timeout),
                           "network.probe_timeout");
  if (o.latency_min < 0.0) {
    throw SpecError("network.latency_min: must be >= 0, got " +
                    std::to_string(o.latency_min));
  }
  if (o.latency_min > o.latency_max) {
    throw SpecError("network.latency_min (" + std::to_string(o.latency_min) +
                    ") must not exceed latency_max (" +
                    std::to_string(o.latency_max) + ")");
  }
  if (o.period_ms <= 0.0) {
    throw SpecError("network.period_ms: must be positive, got " +
                    std::to_string(o.period_ms));
  }
  if (o.probe_timeout <= 0.0) {
    throw SpecError("network.probe_timeout: must be positive, got " +
                    std::to_string(o.probe_timeout));
  }
  return o;
}

Json faults_to_json(const FaultPlan& f) {
  Json j = Json::object();
  if (!f.massive_failures.empty()) {
    Json arr = Json::array();
    for (const sim::MassiveFailure& m : f.massive_failures) {
      arr.push(Json::object()
                   .set("time", Json::number(m.time))
                   .set("fraction", Json::number(m.fraction)));
    }
    j.set("massive_failures", std::move(arr));
  }
  if (f.crash_recovery.crash_prob > 0.0) {
    j.set("crash_recovery",
          Json::object()
              .set("crash_prob", Json::number(f.crash_recovery.crash_prob))
              .set("mean_downtime_periods",
                   Json::number(f.crash_recovery.mean_downtime_periods)));
  }
  if (f.churn.enabled) {
    j.set("churn",
          Json::object()
              .set("hours", Json::number(f.churn.hours))
              .set("min_rate", Json::number(f.churn.min_rate))
              .set("max_rate", Json::number(f.churn.max_rate))
              .set("mean_downtime_hours",
                   Json::number(f.churn.mean_downtime_hours))
              .set("seed", Json::number(f.churn.seed))
              .set("periods_per_hour",
                   Json::number(f.churn.periods_per_hour)));
  }
  return j;
}

FaultPlan faults_from_json(const Json& j) {
  FaultPlan f;
  if (j.contains("massive_failures")) {
    for (const Json& e : j.at("massive_failures").elements()) {
      // "period" is the pre-unification key (whole periods only); specs
      // saved by older builds still load.
      const double time = e.contains("time") ? e.at("time").as_number()
                                             : e.at("period").as_number();
      f.massive_failures.push_back(sim::MassiveFailure{
          finite(time, "massive_failures.time"),
          finite(e.at("fraction").as_number(), "massive_failures.fraction")});
    }
  }
  if (j.contains("crash_recovery")) {
    const Json& cr = j.at("crash_recovery");
    f.crash_recovery.crash_prob =
        finite(cr.get_or("crash_prob", 0.0), "crash_recovery.crash_prob");
    f.crash_recovery.mean_downtime_periods =
        finite(cr.get_or("mean_downtime_periods", 0.0),
               "crash_recovery.mean_downtime_periods");
  }
  if (j.contains("churn")) {
    const Json& ch = j.at("churn");
    f.churn.enabled = true;
    f.churn.hours = finite(ch.get_or("hours", f.churn.hours), "churn.hours");
    f.churn.min_rate =
        finite(ch.get_or("min_rate", f.churn.min_rate), "churn.min_rate");
    f.churn.max_rate =
        finite(ch.get_or("max_rate", f.churn.max_rate), "churn.max_rate");
    f.churn.mean_downtime_hours =
        finite(ch.get_or("mean_downtime_hours", f.churn.mean_downtime_hours),
               "churn.mean_downtime_hours");
    if (ch.contains("seed")) f.churn.seed = ch.at("seed").as_u64();
    f.churn.periods_per_hour =
        finite(ch.get_or("periods_per_hour", f.churn.periods_per_hour),
               "churn.periods_per_hour");
  }
  f.validate();
  return f;
}

/// `v` as a short decimal ("0.5", "1e+12") for error messages.
std::string shortest(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// Throws SpecError unless lo <= v <= hi.
void require_within(double v, double lo, double hi, const char* field) {
  if (!(v >= lo && v <= hi)) {
    throw SpecError(std::string(field) + ": must lie in [" + shortest(lo) +
                    ", " + shortest(hi) + "], got " + shortest(v));
  }
}

/// Throws SpecError unless v > 0.
void require_positive(double v, const char* field) {
  if (!(v > 0.0)) {
    throw SpecError(std::string(field) + ": must be > 0, got " +
                    shortest(v));
  }
}

}  // namespace

void FaultPlan::validate() const {
  for (const sim::MassiveFailure& m : massive_failures) {
    require_within(m.fraction, 0.0, 1.0, "faults.massive_failures.fraction");
  }
  require_within(crash_recovery.crash_prob, 0.0, 1.0,
                 "faults.crash_recovery.crash_prob");
  if (!(crash_recovery.mean_downtime_periods >= 0.0)) {
    throw SpecError(
        "faults.crash_recovery.mean_downtime_periods: must be >= 0, got " +
        shortest(crash_recovery.mean_downtime_periods));
  }
  if (!churn.enabled) return;
  require_within(churn.hours, 0.0, kMaxChurnHours, "faults.churn.hours");
  require_within(churn.min_rate, 0.0, 1.0, "faults.churn.min_rate");
  if (!(churn.max_rate >= churn.min_rate && churn.max_rate <= 1.0)) {
    throw SpecError("faults.churn.max_rate: must lie in [min_rate, 1], got " +
                    shortest(churn.max_rate) + " with min_rate " +
                    shortest(churn.min_rate));
  }
  require_positive(churn.mean_downtime_hours,
                   "faults.churn.mean_downtime_hours");
  require_positive(churn.periods_per_hour, "faults.churn.periods_per_hour");
}

void validate_runtime(const sim::RuntimeOptions& runtime) {
  require_within(runtime.message_loss, 0.0, 1.0, "runtime.message_loss");
}

void validate_clock_drift(double clock_drift) {
  if (!(clock_drift >= 0.0 && clock_drift < 0.5)) {
    throw SpecError("clock_drift: must lie in [0, 0.5), got " +
                    shortest(clock_drift));
  }
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::Sync:
      return "sync";
    case Backend::Event:
      return "event";
    case Backend::Count:
      return "count";
    case Backend::Net:
      return "net";
    case Backend::Auto:
      return "auto";
  }
  return "sync";  // unreachable
}

Backend backend_from_name(const std::string& name) {
  if (name == "sync") return Backend::Sync;
  if (name == "event") return Backend::Event;
  if (name == "count") return Backend::Count;
  if (name == "net") return Backend::Net;
  if (name == "auto") return Backend::Auto;
  throw SpecError("unknown backend: " + name +
                  " (want sync | event | count | net | auto)");
}

Backend resolve_backend(Backend backend, std::size_t n) {
  if (backend != Backend::Auto) return backend;
  return n >= kAutoBackendCrossoverN ? Backend::Count : Backend::Sync;
}

std::vector<std::string> catalog_source_ids() {
  return {"epidemic",  "endemic",    "lv",         "lv-original",
          "sir",       "logistic",   "invitation", "constant-flow"};
}

ode::EquationSystem ScenarioSpec::resolve_source() const {
  if (!source.catalog.empty() && !source.ode_text.empty()) {
    throw SpecError("source: give either a catalog id or ODE text, not both");
  }
  if (!source.ode_text.empty()) return ode::parse_system(source.ode_text);
  const std::string& id = source.catalog;
  const std::vector<double>& a = source.params;
  if (id == "epidemic") return ode::catalog::epidemic();
  if (id == "endemic") {
    return ode::catalog::endemic(param_or(a, 0, 4.0), param_or(a, 1, 1.0),
                                 param_or(a, 2, 0.1));
  }
  if (id == "lv") return ode::catalog::lv_partitionable();
  if (id == "lv-original") return ode::catalog::lv_original();
  if (id == "sir") {
    return ode::catalog::sir(param_or(a, 0, 0.5), param_or(a, 1, 0.1));
  }
  if (id == "logistic") return ode::catalog::logistic(param_or(a, 0, 0.7));
  if (id == "invitation") {
    return ode::catalog::invitation(param_or(a, 0, 0.1));
  }
  if (id == "constant-flow") {
    return ode::catalog::constant_flow(param_or(a, 0, 0.05));
  }
  if (id.empty()) throw SpecError("source: empty (no catalog id, no text)");
  throw SpecError("unknown catalog id: " + id);
}

ScenarioSpec ScenarioSpec::scaled_to(std::size_t new_n) const {
  ScenarioSpec scaled = *this;
  scaled.n = new_n;
  if (initial_counts.empty() || n == 0) return scaled;
  std::vector<std::size_t>& counts = scaled.initial_counts;
  const double ratio = static_cast<double>(new_n) / static_cast<double>(n);
  // Near new_n = SIZE_MAX the entries can sum past 2^64: sum in 128 bits.
  unsigned __int128 assigned = 0;
  for (std::size_t& c : counts) {
    // Round half away from zero (as llround) without its signed overflow.
    const double x = std::round(static_cast<double>(c) * ratio);
    std::size_t v = x < 0x1p64 ? static_cast<std::size_t>(x) : new_n;
    if (c > 0 && v == 0) v = 1;  // keep seeded states populated
    c = std::min(v, new_n);
    assigned += c;
  }
  if (assigned > new_n) {
    // Rounding overshoot comes off the largest entries, as if one process
    // at a time from the first largest: level every entry down to the
    // least level L >= 1 keeping >= new_n, then the first entries at L
    // give up the rest. Entries pinned to 1 stay at 1 unless new_n < the
    // number of nonzero states.
    const auto kept = [&](std::size_t level) {
      unsigned __int128 sum = 0;
      for (const std::size_t c : counts) sum += std::min(c, level);
      return sum;
    };
    std::size_t lo = 1;
    std::size_t hi = *std::max_element(counts.begin(), counts.end());
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (kept(mid) >= new_n) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    auto extra = static_cast<std::size_t>(kept(lo) - new_n);
    for (std::size_t& c : counts) {
      if (c < lo) continue;
      c = lo;
      if (extra > 0) {
        --c;
        --extra;
      }
    }
  } else {
    // Rounding undershoot tops up the largest entry (closest to the
    // intended proportions); without this, seed_states would silently
    // leave the shortfall in state 0.
    *std::max_element(counts.begin(), counts.end()) +=
        static_cast<std::size_t>(new_n - assigned);
  }
  return scaled;
}

Json ScenarioSpec::to_json() const {
  Json j = Json::object();
  if (!name.empty()) j.set("name", Json::string(name));
  if (!description.empty()) j.set("description", Json::string(description));
  Json src = Json::object();
  if (!source.catalog.empty()) {
    src.set("catalog", Json::string(source.catalog));
    if (!source.params.empty()) {
      Json params = Json::array();
      for (const double p : source.params) params.push(Json::number(p));
      src.set("params", std::move(params));
    }
  } else {
    src.set("ode", Json::string(source.ode_text));
  }
  j.set("source", std::move(src));
  j.set("synthesis", synthesis_to_json(synthesis));
  j.set("runtime", runtime_to_json(runtime));
  j.set("backend", Json::string(backend_name(backend)));
  if (backend == Backend::Event || backend == Backend::Net) {
    j.set("clock_drift", Json::number(clock_drift));
  }
  if (network != NetworkSpec{}) j.set("network", network_to_json(network));
  j.set("n", Json::number(n));
  j.set("periods", Json::number(periods));
  j.set("seed", Json::number(seed));
  if (!initial_counts.empty()) {
    j.set("initial_counts", json_from_counts(initial_counts));
  }
  if (faults.any()) j.set("faults", faults_to_json(faults));
  if (!lint_suppress.empty()) {
    Json arr = Json::array();
    for (const std::string& rule : lint_suppress) {
      arr.push(Json::string(rule));
    }
    j.set("lint_suppress", std::move(arr));
  }
  return j;
}

ScenarioSpec ScenarioSpec::from_json(const Json& j) {
  ScenarioSpec spec;
  spec.name = j.get_or("name", spec.name);
  spec.description = j.get_or("description", spec.description);
  if (j.contains("source")) {
    const Json& src = j.at("source");
    spec.source.catalog = src.get_or("catalog", std::string());
    spec.source.ode_text = src.get_or("ode", std::string());
    if (src.contains("params")) {
      for (const Json& e : src.at("params").elements()) {
        spec.source.params.push_back(finite(e.as_number(), "source.params"));
      }
    }
  }
  if (j.contains("synthesis")) {
    spec.synthesis = synthesis_from_json(j.at("synthesis"));
  }
  if (j.contains("runtime")) {
    spec.runtime = runtime_from_json(j.at("runtime"));
  }
  spec.backend =
      backend_from_name(j.get_or("backend", std::string("sync")));
  spec.clock_drift =
      finite(j.get_or("clock_drift", spec.clock_drift), "clock_drift");
  validate_clock_drift(spec.clock_drift);
  if (j.contains("network")) {
    spec.network = network_from_json(j.at("network"));
  }
  if (j.contains("n")) spec.n = j.at("n").as_size();
  if (j.contains("periods")) spec.periods = j.at("periods").as_size();
  if (j.contains("seed")) spec.seed = j.at("seed").as_u64();
  if (j.contains("initial_counts")) {
    spec.initial_counts = counts_from_json(j.at("initial_counts"));
  }
  if (j.contains("faults")) spec.faults = faults_from_json(j.at("faults"));
  if (j.contains("lint_suppress")) {
    for (const Json& e : j.at("lint_suppress").elements()) {
      spec.lint_suppress.push_back(e.as_string());
    }
  }
  return spec;
}

}  // namespace deproto::api
