#pragma once

// Spec-level entry point of the static protocol verifier: lint an
// api::ScenarioSpec without launching it. analyze_spec() resolves the
// source system, synthesizes the machine, runs every machine-level pass
// (analysis/machine_checks.hpp), prepends the spec lint rules below, and
// applies the spec's suppressions. deproto-lint, the Experiment pre-flight
// (RuntimeOptions::verify_static), and the registry CTest gate all call
// this one function.
//
// Spec lint catalog:
//   spec.initial-counts          (error)   initial_counts sums != n
//   spec.net-population          (error)   net backend with n beyond the
//                                          one-socket-per-node cap
//   spec.net-probe-timeout       (warning) net backend with a probe
//                                          timeout under one period: in-
//                                          flight probes are declared lost
//                                          before a full period of pacing
//                                          jitter has passed
//   spec.token-ttl               (warning) random-walk token TTL longer
//                                          than the whole run
//   spec.count-anonymous-faults  (warning) count backend with a fault
//                                          plan: victims are anonymous
//                                          count draws, not tracked nodes
//   spec.uncompensated-loss      (info)    runtime message loss with no
//                                          synthesis-side compensation
//
// Failures to resolve or synthesize surface as findings too ("spec.source"
// / "synthesis.failed", both errors) rather than exceptions, so a lint
// sweep over many specs reports every broken one instead of stopping at
// the first.

#include "analysis/exact_checks.hpp"
#include "analysis/machine_checks.hpp"
#include "analysis/report.hpp"
#include "api/spec.hpp"

namespace deproto::analysis {

struct VerifyOptions {
  /// Toggles for the machine-level passes. failure_rate and
  /// seeded_states are derived from the spec and overwritten.
  MachineCheckOptions machine;
  /// Honor spec.lint_suppress (deproto-lint --no-suppress sets false).
  bool apply_suppressions = true;
  /// Opt-in exact finite-N pass (deproto-lint --exact, or the
  /// RuntimeOptions::verify_exact pre-flight): build the explicit-state
  /// chain of analysis/exact_chain.hpp at exact_chain.n -- the spec is
  /// rescaled there via ScenarioSpec::scaled_to -- and append the
  /// exact.* findings. The chain models the fault-free count-backend
  /// dynamics; the spec's fault plan is ignored by this pass.
  bool exact = false;
  ExactCheckOptions exact_chain;
};

/// Lint only the spec fields (no synthesis): the spec.* catalog above.
[[nodiscard]] std::vector<Finding> lint_spec(const api::ScenarioSpec& spec);

/// The full static verification of one scenario: spec lint + synthesis +
/// machine checks + suppressions. Never throws on a broken spec; the
/// breakage becomes error findings.
[[nodiscard]] Report analyze_spec(const api::ScenarioSpec& spec,
                                  const VerifyOptions& options = {});

}  // namespace deproto::analysis
