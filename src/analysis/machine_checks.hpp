#pragma once

// Machine-level static verification: everything that can be checked about
// a synthesized ProtocolStateMachine without running a single period.
// Four passes over the structural channel view (core::channel_shapes) and
// the re-extracted mean field (core::mean_field):
//
//   mass.*        -- probability-mass conservation. "mass.action-bias"
//                    (error): a coin bias outside [0, 1] moves more mass
//                    per period than the state holds (a mass leak).
//                    "mass.state-budget" (warning): the worst-case leave
//                    probability of one state's action set exceeds 1, so
//                    the runtime's stop-after-first-firing semantics must
//                    diverge from the additive mean field.
//                    "mass.conservation" (error): the expected drift does
//                    not sum to zero over the simplex sample points (mass
//                    appears or vanishes; unreachable for the current
//                    action vocabulary, a guard for future kinds).
//   reach.*       -- reachability from the seeded states over the mass-
//                    movement digraph. "reach.dead-state" (error): no
//                    action can enter the state and it is never seeded.
//                    "reach.unreachable" (warning): enterable in
//                    principle, but not from this seeding. "reach.
//                    absorbing" (info): no action moves mass out.
//                    "reach.absorbing-unreachable" (warning): an absorbing
//                    state the seeded dynamics can never fall into.
//   mean-field.*  -- re-extract the ODE from the machine and compare with
//                    the source system scaled by p. "mean-field.residual"
//                    reports the largest coefficient deviation (info below
//                    tolerance, error above: the machine has drifted from
//                    the equations it claims to implement).
//   fixed-point.* -- equilibria of the re-extracted mean field with their
//                    stability classification ("fixed-point.classified",
//                    info; "fixed-point.none", warning): the static
//                    stability story Theorems 2-3 hang convergence on.
//
// All rule ids are stable API; tests and spec suppressions key on them.

#include <cstddef>
#include <vector>

#include "analysis/report.hpp"
#include "core/state_machine.hpp"
#include "numerics/stability.hpp"
#include "numerics/vector.hpp"
#include "ode/equation_system.hpp"

namespace deproto::analysis {

struct MachineCheckOptions {
  /// Network failure rate fed to the mean-field extraction, mirroring
  /// what the machine was compensated for (spec.synthesis.failure_rate).
  double failure_rate = 0.0;
  /// States holding initial mass. Empty means "assume every state may be
  /// seeded" (bare-machine analysis without a spec).
  std::vector<std::size_t> seeded_states;
  /// Run the equilibrium search + stability classification (the one pass
  /// with real numerical cost: multi-start Newton over the simplex).
  bool fixed_points = true;
};

/// The mass.* pass.
[[nodiscard]] std::vector<Finding> check_mass(
    const core::ProtocolStateMachine& machine,
    const MachineCheckOptions& options = {});

/// The reach.* pass.
[[nodiscard]] std::vector<Finding> check_reachability(
    const core::ProtocolStateMachine& machine,
    const MachineCheckOptions& options = {});

/// The mean-field.* pass: residual of mean_field(machine, failure_rate)
/// against source.scaled(machine.normalizing_p()).
[[nodiscard]] std::vector<Finding> check_mean_field(
    const core::ProtocolStateMachine& machine,
    const ode::EquationSystem& source,
    const MachineCheckOptions& options = {});

/// An equilibrium of the re-extracted mean field that lies on the
/// probability simplex, with its stability classification.
struct SimplexEquilibrium {
  num::Vec point;
  num::StabilityReport stability;
};

/// The equilibria of mean_field(machine, failure_rate) on the probability
/// simplex (every entry >= -1e-9, entries summing to 1 within 1e-6), in
/// num::find_equilibria's order. A complete system is classified on the
/// simplex (num::classify_on_simplex), any other in the full space.
[[nodiscard]] std::vector<SimplexEquilibrium> simplex_equilibria(
    const core::ProtocolStateMachine& machine, double failure_rate);

/// The fixed-point.* pass over the re-extracted mean field.
[[nodiscard]] std::vector<Finding> check_fixed_points(
    const core::ProtocolStateMachine& machine,
    const MachineCheckOptions& options = {});

/// All four passes in catalog order. `source` is the system the machine
/// claims to implement (core::SynthesisResult::source for synthesized
/// machines).
[[nodiscard]] std::vector<Finding> analyze_machine(
    const core::ProtocolStateMachine& machine,
    const ode::EquationSystem& source,
    const MachineCheckOptions& options = {});

}  // namespace deproto::analysis
