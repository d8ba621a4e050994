#include "analysis/machine_checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/mean_field.hpp"
#include "core/transition_model.hpp"
#include "numerics/newton.hpp"
#include "numerics/stability.hpp"
#include "numerics/vector.hpp"
#include "ode/polynomial.hpp"
#include "ode/taxonomy.hpp"

namespace deproto::analysis {

namespace {

/// Slack on per-action coin-bias range and drift-sum conservation.
constexpr double kMassTol = 1e-9;
/// Slack on the per-state worst-case leave-probability budget.
constexpr double kBudgetTol = 1e-9;
/// Largest tolerated coefficient deviation between the re-extracted mean
/// field and p * source. Looser than the boolean runtime gate
/// (core::verifies_equivalence at 1e-9) only by giving the measured
/// residual back instead of a yes/no.
constexpr double kResidualTol = 1e-7;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string state_label(const core::ProtocolStateMachine& m, std::size_t s) {
  return "state " + m.state_name(s);
}

std::string action_label(std::size_t i) {
  return "action " + std::to_string(i);
}

/// Largest |coefficient| of the algebraic normal form of p (0 when p is
/// identically zero).
double max_abs_coefficient(const ode::Polynomial& p) {
  double worst = 0.0;
  for (const ode::Term& t : ode::simplified(p, 0.0)) {
    worst = std::max(worst, std::abs(t.coefficient()));
  }
  return worst;
}

}  // namespace

std::vector<Finding> check_mass(const core::ProtocolStateMachine& machine,
                                const MachineCheckOptions& options) {
  std::vector<Finding> findings;
  const auto shapes = core::channel_shapes(machine);

  // mass.action-bias: a coin bias outside [0, 1] is a per-period mass leak
  // (the expected moved mass exceeds the mass present in the from-state).
  for (const core::ChannelShape& sh : shapes) {
    if (!std::isfinite(sh.coin_bias) ||
        sh.coin_bias < -kMassTol || sh.coin_bias > 1.0 + kMassTol) {
      findings.push_back(
          {Severity::Error, "mass.action-bias", action_label(sh.action),
           "coin bias " + fmt(sh.coin_bias) +
               " outside [0, 1]: the action moves more mass per period " +
               "than " + machine.state_name(sh.from) + " holds",
           sh.coin_bias});
    }
  }

  // mass.state-budget: the runtime stops a process after its first firing
  // each period, while the mean field adds rates. When the worst-case
  // leave probability of one state's own actions exceeds 1 the two
  // semantics must diverge (the synthesis constraint p*c*ff <= 1 exists
  // precisely to keep this sum feasible).
  for (std::size_t s = 0; s < machine.num_states(); ++s) {
    double budget = 0.0;
    for (const core::ChannelShape& sh : shapes) {
      if (sh.moves_executor && sh.executor == s) budget += sh.max_fire_prob;
    }
    if (budget > 1.0 + kBudgetTol) {
      findings.push_back(
          {Severity::Warning, "mass.state-budget", state_label(machine, s),
           "worst-case leave probability " + fmt(budget) +
               " exceeds 1: stop-after-first-firing runtime semantics " +
               "diverge from the additive mean field",
           budget});
    }
  }

  // mass.conservation: the expected drift must sum to zero at every
  // population point (mass neither appears nor vanishes). Unreachable for
  // the paired-action vocabulary; a structural guard for future kinds.
  const std::size_t m = machine.num_states();
  if (m > 0) {
    std::vector<num::Vec> samples;
    samples.push_back(num::Vec(m, 1.0 / static_cast<double>(m)));
    for (std::size_t s = 0; s < m; ++s) {
      num::Vec corner(m, 0.0);
      corner[s] = 1.0;
      samples.push_back(std::move(corner));
    }
    double worst = 0.0;
    for (const num::Vec& x : samples) {
      const num::Vec drift =
          core::exact_drift(machine, x, options.failure_rate);
      double total = 0.0;
      for (std::size_t s = 0; s < m; ++s) total += drift[s];
      worst = std::max(worst, std::abs(total));
    }
    if (worst > kMassTol) {
      findings.push_back(
          {Severity::Error, "mass.conservation", "simplex samples",
           "expected drift sums to " + fmt(worst) +
               " instead of 0: per-period mass is not conserved",
           worst});
    }
  }
  return findings;
}

std::vector<Finding> check_reachability(
    const core::ProtocolStateMachine& machine,
    const MachineCheckOptions& options) {
  std::vector<Finding> findings;
  const auto shapes = core::channel_shapes(machine);
  const std::size_t m = machine.num_states();

  std::vector<bool> seeded(m, false);
  if (options.seeded_states.empty()) {
    seeded.assign(m, true);
  } else {
    for (const std::size_t s : options.seeded_states) {
      if (s < m) seeded[s] = true;
    }
  }

  // A state is enterable when some action moves mass into it from a
  // different state (from == to channels move nothing).
  std::vector<bool> enterable(m, false);
  std::vector<bool> leavable(m, false);
  for (const core::ChannelShape& sh : shapes) {
    if (sh.to != sh.from) {
      enterable[sh.to] = true;
      leavable[sh.from] = true;
    }
  }

  // Reachable fixpoint over the mass-movement hypergraph: a channel can
  // fire once every state it requires occupied holds mass, and then its
  // to-state becomes occupied.
  std::vector<bool> reachable = seeded;
  bool grew = true;
  while (grew) {
    grew = false;
    for (const core::ChannelShape& sh : shapes) {
      if (reachable[sh.to]) continue;
      bool gated = false;
      for (const std::size_t s : sh.requires_occupied) {
        if (!reachable[s]) {
          gated = true;
          break;
        }
      }
      if (!gated) {
        reachable[sh.to] = true;
        grew = true;
      }
    }
  }

  for (std::size_t s = 0; s < m; ++s) {
    const bool absorbing = !leavable[s];
    if (!seeded[s] && !enterable[s]) {
      findings.push_back(
          {Severity::Error, "reach.dead-state", state_label(machine, s),
           "no action can enter this state and it is never seeded",
           static_cast<double>(s)});
    } else if (!reachable[s]) {
      if (absorbing) {
        findings.push_back({Severity::Warning, "reach.absorbing-unreachable",
                            state_label(machine, s),
                            "absorbing state is not reachable from the "
                            "seeded states: the dynamics can never "
                            "terminate there",
                            static_cast<double>(s)});
      } else {
        findings.push_back({Severity::Warning, "reach.unreachable",
                            state_label(machine, s),
                            "state is never seeded and not reachable from "
                            "the seeded states",
                            static_cast<double>(s)});
      }
    } else if (absorbing) {
      findings.push_back({Severity::Info, "reach.absorbing",
                          state_label(machine, s),
                          "no action moves mass out of this state",
                          static_cast<double>(s)});
    }
  }
  return findings;
}

std::vector<Finding> check_mean_field(
    const core::ProtocolStateMachine& machine,
    const ode::EquationSystem& source, const MachineCheckOptions& options) {
  std::vector<Finding> findings;
  const ode::EquationSystem derived =
      core::mean_field(machine, options.failure_rate);
  if (derived.num_vars() != source.num_vars()) {
    findings.push_back(
        {Severity::Error, "mean-field.shape", "mean field",
         "machine has " + std::to_string(derived.num_vars()) +
             " states but the source system has " +
             std::to_string(source.num_vars()) + " variables",
         static_cast<double>(derived.num_vars())});
    return findings;
  }

  const double p = machine.normalizing_p();
  const ode::EquationSystem expected = source.scaled(p);
  double residual = 0.0;
  std::size_t worst_var = 0;
  for (std::size_t v = 0; v < derived.num_vars(); ++v) {
    const double r = max_abs_coefficient(
        ode::sum(derived.rhs(v), ode::negated(expected.rhs(v))));
    if (r > residual) {
      residual = r;
      worst_var = v;
    }
  }
  if (residual > kResidualTol) {
    findings.push_back(
        {Severity::Error, "mean-field.residual",
         "d" + derived.name(worst_var) + "/dt",
         "re-extracted mean field deviates from p * source (p = " + fmt(p) +
             ") by coefficient residual " + fmt(residual) +
             ": the machine does not implement the equations it claims",
         residual});
  } else {
    findings.push_back(
        {Severity::Info, "mean-field.residual", "mean field",
         "re-extracted mean field matches p * source (p = " + fmt(p) +
             ") with coefficient residual " + fmt(residual),
         residual});
  }
  return findings;
}

std::vector<SimplexEquilibrium> simplex_equilibria(
    const core::ProtocolStateMachine& machine, double failure_rate) {
  std::vector<SimplexEquilibrium> out;
  const ode::EquationSystem derived =
      core::mean_field(machine, failure_rate).simplified();
  const bool complete = ode::is_complete(derived);
  for (num::Vec& x : num::find_equilibria(derived)) {
    double total = 0.0;
    double lowest = 1.0;
    for (std::size_t v = 0; v < x.size(); ++v) {
      total += x[v];
      lowest = std::min(lowest, x[v]);
    }
    if (lowest < -1e-9 || std::abs(total - 1.0) > 1e-6) continue;
    num::StabilityReport report =
        complete ? num::classify_on_simplex(derived, x)
                 : num::classify_equilibrium(derived, x);
    out.push_back({std::move(x), std::move(report)});
  }
  return out;
}

std::vector<Finding> check_fixed_points(
    const core::ProtocolStateMachine& machine,
    const MachineCheckOptions& options) {
  std::vector<Finding> findings;
  if (!options.fixed_points) return findings;

  const std::vector<SimplexEquilibrium> equilibria =
      simplex_equilibria(machine, options.failure_rate);
  for (const auto& [x, report] : equilibria) {
    double abscissa = 0.0;
    for (const std::complex<double>& ev : report.eigenvalues) {
      abscissa = std::max(abscissa, ev.real());
    }
    std::ostringstream where;
    where << "(";
    for (std::size_t v = 0; v < x.size(); ++v) {
      if (v != 0) where << ", ";
      where << machine.state_name(v) << "=" << fmt(x[v]);
    }
    where << ")";
    findings.push_back(
        {Severity::Info, "fixed-point.classified", where.str(),
         num::to_string(report.type) +
             (report.stable ? ", asymptotically stable" : ", not stable"),
         abscissa});
  }
  if (equilibria.empty()) {
    findings.push_back(
        {Severity::Warning, "fixed-point.none", "mean field",
         "no equilibrium found on the probability simplex: the protocol "
         "has no candidate resting distribution",
         0.0});
  }
  return findings;
}

std::vector<Finding> analyze_machine(
    const core::ProtocolStateMachine& machine,
    const ode::EquationSystem& source, const MachineCheckOptions& options) {
  std::vector<Finding> findings = check_mass(machine, options);
  std::vector<Finding> more = check_reachability(machine, options);
  findings.insert(findings.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  more = check_mean_field(machine, source, options);
  findings.insert(findings.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  more = check_fixed_points(machine, options);
  findings.insert(findings.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  return findings;
}

}  // namespace deproto::analysis
