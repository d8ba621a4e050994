#pragma once

// The exact.* rule family: findings derived from the explicit-state
// Markov chain of analysis/exact_chain.hpp, the finite-N tier of the
// static verifier. Where the machine checks trust the mean field (exact
// only as N -> infinity), these rules report what provably happens to a
// small population -- and flag the places where the two tiers disagree,
// which is precisely the finite-N gap the paper's Theorems 1/5 leave
// open.
//
// Rule catalog:
//   exact.state-budget          (info)    the count-vector lattice or a
//                                         kernel row exceeded its budget;
//                                         the exact pass was skipped
//   exact.absorbing-class       (info)    one recurrent (closed)
//                                         communicating class, with the
//                                         exact probability the chain is
//                                         absorbed into it from the
//                                         seeded start
//   exact.transient-trap        (warning) the chain reaches a recurrent
//                                         class far (L-inf) from every
//                                         mean-field equilibrium with
//                                         non-negligible probability: a
//                                         finite-N trap the mean field
//                                         does not predict
//   exact.hitting-time          (info)    expected periods until the
//                                         seeded start is absorbed into
//                                         some recurrent class
//   exact.meanfield-divergence  (info /   L-inf distance between the
//                                warning) exact stationary mean and the
//                                         nearest mean-field equilibrium
//                                         (ergodic chains only); warning
//                                         past 0.10
//   exact.fluctuation-mismatch  (info /   relative gap between the exact
//                                warning) stationary count stddev and the
//                                         CLT prediction of
//                                         core/fluctuations.*; warning
//                                         past 0.5
//   exact.solve-failed          (error)   an absorption, hitting-time or
//                                         stationary solve reached its
//                                         iteration cap unconverged; the
//                                         verdicts it would feed are
//                                         withheld, never guessed
//   exact.kernel-invalid        (error)   a kernel row left the lattice
//                                         or did not sum to 1 within
//                                         1e-12; no verdict is drawn
//                                         from that chain
//
// The verdict rules are at most warning: a finite-N divergence is a
// judgement call about scale, not a broken machine, so suppressions and
// --strict keep working the same way they do for the mean-field rules.
// exact.solve-failed and exact.kernel-invalid are the errors: a number
// the tier cannot vouch for must stop a gate, not pass it.

#include <cstddef>
#include <vector>

#include "analysis/report.hpp"
#include "core/state_machine.hpp"
#include "sim/runtime.hpp"

namespace deproto::analysis {

struct ExactCheckOptions {
  /// Population size the exact chain is built at. Scenario entry points
  /// rescale the spec (ScenarioSpec::scaled_to) before seeding.
  std::size_t n = 32;
  /// Lattice budget: skip (exact.state-budget) when C(n+S-1, S-1)
  /// exceeds this.
  std::size_t max_states = 20000;
  /// Per-kernel-row outcome budget (ExactChainOptions::max_row_branches).
  std::size_t max_row_branches = 4000000;
};

/// Run the exact finite-N pass on one machine. `seed_counts` are
/// population counts at size options.n (shorter vectors pad; the
/// remainder seeds state 0, matching sim::Simulator::seed_states);
/// `message_loss` and `tokens` mirror the runtime options the count
/// backend would run with. Budget overruns become the exact.state-budget
/// finding, a broken kernel row exact.kernel-invalid and capped solves
/// exact.solve-failed, never an exception, so a registry run reports
/// every spec.
[[nodiscard]] std::vector<Finding> check_exact(
    const core::ProtocolStateMachine& machine,
    const std::vector<std::size_t>& seed_counts,
    const ExactCheckOptions& options, double message_loss = 0.0,
    sim::TokenRouting tokens = {});

}  // namespace deproto::analysis
