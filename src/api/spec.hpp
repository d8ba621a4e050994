#pragma once

// Declarative experiment descriptions: everything the paper's pipeline
// needs -- a source equation system (ODE text or a catalog id), synthesis
// and runtime options, a simulation backend with N/seed/periods, initial
// state seeding, and a fault plan -- in one serializable value. Experiment
// (api/experiment.hpp) is the single entry point that executes a spec;
// the registry (api/registry.hpp) pre-registers the paper's scenarios.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "core/synthesis.hpp"
#include "ode/equation_system.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"

namespace deproto::api {

/// Thrown when a spec cannot be resolved or executed (unknown catalog id,
/// malformed JSON shape, simulator-level validation failures).
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where the source equations come from. Exactly one of `catalog` /
/// `ode_text` is non-empty; catalog entries take positional parameters
/// (e.g. endemic's beta, gamma, alpha) with catalog defaults when omitted.
struct SourceSpec {
  std::string catalog;          // id from api::catalog_source_ids()
  std::vector<double> params;   // catalog constructor parameters
  std::string ode_text;         // parser grammar (see ode/parser.hpp)

  friend bool operator==(const SourceSpec&, const SourceSpec&) = default;
};

/// Longest synthetic churn trace a spec may ask for (~11 years): the
/// trace generator loops once per hour.
inline constexpr double kMaxChurnHours = 1e5;

/// Synthetic Overnet-style churn attachment; mirrors
/// sim::ChurnTrace::synthetic_overnet plus the hours -> periods conversion.
struct ChurnSpec {
  bool enabled = false;
  double hours = 0.0;
  double min_rate = 0.05;
  double max_rate = 0.15;
  double mean_downtime_hours = 0.5;
  std::uint64_t seed = 7;
  double periods_per_hour = 10.0;

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Background crash-recovery failures; mirrors
/// sim::Simulator::set_crash_recovery.
struct CrashRecoverySpec {
  double crash_prob = 0.0;
  double mean_downtime_periods = 0.0;

  friend bool operator==(const CrashRecoverySpec&,
                         const CrashRecoverySpec&) = default;
};

/// The unified fault plan: scheduled massive failures, background
/// crash-recovery, and churn-trace attachment. Every field is valid on
/// both backends (sim::Simulator is the single scheduling surface).
struct FaultPlan {
  std::vector<sim::MassiveFailure> massive_failures;
  CrashRecoverySpec crash_recovery;
  ChurnSpec churn;

  [[nodiscard]] bool any() const {
    return !massive_failures.empty() || crash_recovery.crash_prob > 0.0 ||
           churn.enabled;
  }

  /// Throws SpecError naming the first field outside its range: failure
  /// fractions and crash_prob in [0, 1], mean_downtime_periods >= 0, and
  /// for an enabled churn 0 <= min_rate <= max_rate <= 1,
  /// mean_downtime_hours > 0, periods_per_hour > 0 and
  /// 0 <= hours <= kMaxChurnHours. Parsing runs it; so does
  /// Experiment::launch, for specs built in code or by a sweep axis.
  void validate() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Throws SpecError naming the first runtime field outside its range:
/// message_loss in [0, 1]. Parsing runs it, so a bad spec fails before any
/// backend is stood up; so does Experiment::launch, for specs built in
/// code or by a sweep axis.
void validate_runtime(const sim::RuntimeOptions& runtime);

/// Throws SpecError naming clock_drift unless it lies in [0, 0.5), the
/// band the event and net backends' drifting timers accept. Run at parse
/// time and at launch, like validate_runtime, on every backend.
void validate_clock_drift(double clock_drift);

/// Execution backend: per-node round-synchronous (Sync), per-node fully
/// asynchronous (Event), count-based O(states)-per-period (Count),
/// real UDP sockets on loopback (Net, one socket per node -- capped at
/// net::NetSimulator::kMaxNodes), or Auto, which resolves at launch to
/// Count when n >= kAutoBackendCrossoverN and to Sync below it.
enum class Backend { Sync, Event, Count, Net, Auto };

/// Auto crossover: below this N the per-node sync backend is cheap and
/// exact; at or above it the count backend's O(states) periods win and
/// its O(1/N) approximations are negligible.
inline constexpr std::size_t kAutoBackendCrossoverN = 100000;

[[nodiscard]] const char* backend_name(Backend backend);
[[nodiscard]] Backend backend_from_name(const std::string& name);

/// The backend an Auto spec with population `n` launches on; non-Auto
/// backends pass through unchanged.
[[nodiscard]] Backend resolve_backend(Backend backend, std::size_t n);

/// Network model knobs, validated at spec-parse time. The latency band
/// feeds the event backend's synthetic sim::Network; period_ms and
/// probe_timeout pace the net backend's real-socket runtime. Serialized
/// as a "network" object only when it differs from the defaults, so
/// existing spec JSON (and cache keys) are untouched.
struct NetworkSpec {
  double latency_min = 0.02;   // event backend, in periods
  double latency_max = 0.10;   // event backend, in periods
  double period_ms = 20.0;     // net backend: wall-clock ms per period
  double probe_timeout = 0.5;  // net backend: loss deadline, in periods

  friend bool operator==(const NetworkSpec&, const NetworkSpec&) = default;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  SourceSpec source;
  core::SynthesisOptions synthesis;
  sim::RuntimeOptions runtime;
  Backend backend = Backend::Sync;
  /// Event and net backends: per-process clock drift.
  double clock_drift = 0.05;
  /// Event and net backends: latency band / real-socket pacing.
  NetworkSpec network;
  std::size_t n = 1000;
  std::size_t periods = 100;
  std::uint64_t seed = 1;
  /// counts[s] processes start in machine state s; empty means an even
  /// spread of n / num_states per state (remainder in state 0).
  std::vector<std::size_t> initial_counts;
  FaultPlan faults;
  /// Rule ids (exact match, e.g. "spec.count-anonymous-faults") whose
  /// warning/info findings the static verifier drops for this scenario.
  /// Error-severity findings are never suppressible: a suppression mutes
  /// a judgement call, not a broken machine. Serialized only when
  /// non-empty so cache keys of untouched specs stay byte-stable.
  std::vector<std::string> lint_suppress;

  /// Build the source equation system (catalog lookup or text parse).
  /// Throws SpecError / ode::ParseError.
  [[nodiscard]] ode::EquationSystem resolve_source() const;

  /// Copy with n rescaled and initial_counts scaled proportionally
  /// (nonzero entries stay nonzero; the remainder lands in state 0).
  [[nodiscard]] ScenarioSpec scaled_to(std::size_t new_n) const;

  [[nodiscard]] Json to_json() const;
  static ScenarioSpec from_json(const Json& j);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Catalog ids accepted by SourceSpec::catalog, with their parameter
/// counts documented in api/spec.cpp (epidemic, endemic, lv, lv-original,
/// sir, logistic, invitation, constant-flow).
[[nodiscard]] std::vector<std::string> catalog_source_ids();

}  // namespace deproto::api
