#include "analysis/exact_checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/exact_chain.hpp"
#include "core/fluctuations.hpp"
#include "core/mean_field.hpp"
#include "numerics/newton.hpp"
#include "numerics/stability.hpp"
#include "numerics/vector.hpp"
#include "ode/taxonomy.hpp"

namespace deproto::analysis {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fraction_point(const core::ProtocolStateMachine& machine,
                           const num::Vec& x) {
  std::ostringstream out;
  out << "(";
  for (std::size_t s = 0; s < x.size(); ++s) {
    if (s != 0) out << ", ";
    out << machine.state_name(s) << "=" << fmt(x[s]);
  }
  out << ")";
  return out.str();
}

std::string count_point(const core::ProtocolStateMachine& machine,
                        const std::vector<std::size_t>& counts) {
  std::ostringstream out;
  out << "(";
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (s != 0) out << ", ";
    out << machine.state_name(s) << "=" << counts[s];
  }
  out << ")";
  return out.str();
}

/// Mean-field equilibria on the probability simplex at the chain's loss
/// rate, split into stable and all. The trap / divergence rules compare
/// against the stable ones when any exist (an unstable equilibrium is not
/// where the mean field predicts mass to rest), else against all.
struct SimplexEquilibria {
  std::vector<num::Vec> stable;
  std::vector<num::Vec> all;

  [[nodiscard]] const std::vector<num::Vec>& reference() const {
    return stable.empty() ? all : stable;
  }
};

SimplexEquilibria simplex_equilibria(
    const core::ProtocolStateMachine& machine, double message_loss) {
  SimplexEquilibria out;
  const ode::EquationSystem derived =
      core::mean_field(machine, message_loss).simplified();
  const bool complete = ode::is_complete(derived);
  for (const num::Vec& x : num::find_equilibria(derived)) {
    double total = 0.0;
    double lowest = 1.0;
    for (std::size_t v = 0; v < x.size(); ++v) {
      total += x[v];
      lowest = std::min(lowest, x[v]);
    }
    if (lowest < -1e-9 || std::abs(total - 1.0) > 1e-6) continue;
    const num::StabilityReport report =
        complete ? num::classify_on_simplex(derived, x)
                 : num::classify_equilibrium(derived, x);
    out.all.push_back(x);
    if (report.stable) out.stable.push_back(x);
  }
  return out;
}

double linf_distance(const num::Vec& a, const num::Vec& b) {
  double worst = 0.0;
  for (std::size_t s = 0; s < a.size(); ++s) {
    worst = std::max(worst, std::abs(a[s] - b[s]));
  }
  return worst;
}

/// L-inf distance (in fractions) from a chain state to the nearest
/// reference equilibrium; infinity when there are none.
double distance_to_reference(const ExactChain& chain, std::size_t state,
                             const std::vector<num::Vec>& reference) {
  const std::vector<std::size_t>& counts = chain.state(state);
  num::Vec frac(counts.size(), 0.0);
  for (std::size_t s = 0; s < counts.size(); ++s) {
    frac[s] = static_cast<double>(counts[s]) /
              static_cast<double>(chain.options().n);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const num::Vec& ref : reference) {
    best = std::min(best, linf_distance(frac, ref));
  }
  return best;
}

/// The exact.* verdicts on a built chain, appended to `findings` in
/// rule order. A solve that hits its cap throws ExactChainSolveError;
/// the findings appended before it came from converged solves.
void add_verdicts(const core::ProtocolStateMachine& machine,
                  const ExactChain& chain,
                  const std::vector<std::size_t>& seed_counts,
                  const ExactCheckOptions& options, double message_loss,
                  std::vector<Finding>& findings) {
  const std::size_t start = chain.seeded_index(seed_counts);
  const SimplexEquilibria equilibria =
      simplex_equilibria(machine, message_loss);
  const std::vector<double> absorb = chain.absorption_probabilities(start);
  const std::vector<std::size_t> recurrent = chain.recurrent_classes();

  for (const std::size_t k : recurrent) {
    const CommunicatingClass& cls = chain.classes()[k];
    const std::string where =
        cls.absorbing
            ? "absorbing state " +
                  count_point(machine, chain.state(cls.members.front()))
            : "recurrent class of " + std::to_string(cls.members.size()) +
                  " states incl. " +
                  count_point(machine, chain.state(cls.members.front()));
    findings.push_back(
        {Severity::Info, "exact.absorbing-class", where,
         "the chain is absorbed here with probability " + fmt(absorb[k]) +
             " from the seeded start",
         absorb[k]});

    if (absorb[k] <= options.trap_prob_tol) continue;
    if (equilibria.reference().empty()) continue;
    double class_distance = std::numeric_limits<double>::infinity();
    for (const std::size_t member : cls.members) {
      class_distance = std::min(
          class_distance,
          distance_to_reference(chain, member, equilibria.reference()));
    }
    if (class_distance > options.divergence_tol) {
      findings.push_back(
          {Severity::Warning, "exact.transient-trap", where,
           "absorbed with probability " + fmt(absorb[k]) +
               " into a class at L-inf distance " + fmt(class_distance) +
               " from every mean-field equilibrium: a finite-N trap the "
               "mean field does not predict",
           absorb[k]});
    }
  }

  if (!chain.classes()[chain.class_of(start)].recurrent) {
    const double hitting = chain.expected_absorption_time(start);
    findings.push_back(
        {Severity::Info, "exact.hitting-time",
         "start " + count_point(machine, chain.state(start)),
         "expected " + fmt(hitting) +
             " periods until absorption into a recurrent class",
         hitting});
  }

  if (recurrent.size() == 1 && !equilibria.reference().empty()) {
    const std::vector<double> dist = chain.stationary_distribution();
    const num::Vec mean = chain.mean_fractions(dist);
    std::size_t nearest = 0;
    double best = std::numeric_limits<double>::infinity();
    const std::vector<num::Vec>& reference = equilibria.reference();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const double d = linf_distance(mean, reference[i]);
      if (d < best) {
        best = d;
        nearest = i;
      }
    }
    findings.push_back(
        {best > options.divergence_tol ? Severity::Warning : Severity::Info,
         "exact.meanfield-divergence", fraction_point(machine, mean),
         "exact stationary mean vs mean-field equilibrium " +
             fraction_point(machine, reference[nearest]) +
             ": L-inf distance " + fmt(best) + " at n = " +
             std::to_string(options.n),
         best});

    // CLT cross-check, only against a *stable* equilibrium (the
    // linear-noise prediction requires one; stationary_fluctuations
    // throws otherwise, which simply means there is nothing to compare).
    if (!equilibria.stable.empty()) {
      try {
        const core::FluctuationReport clt = core::stationary_fluctuations(
            machine, reference[nearest], static_cast<double>(options.n),
            message_loss);
        const num::Vec exact_stddev = chain.count_stddev(dist);
        double gap = 0.0;
        std::size_t gap_state = 0;
        for (std::size_t s = 0; s < exact_stddev.size(); ++s) {
          if (clt.count_stddev[s] < 1e-9) continue;
          const double rel =
              std::abs(exact_stddev[s] / clt.count_stddev[s] - 1.0);
          if (rel > gap) {
            gap = rel;
            gap_state = s;
          }
        }
        findings.push_back(
            {gap > options.fluctuation_tol ? Severity::Warning
                                           : Severity::Info,
             "exact.fluctuation-mismatch",
             "state " + machine.state_name(gap_state),
             "exact stationary count stddev " + fmt(exact_stddev[gap_state]) +
                 " vs CLT prediction " + fmt(clt.count_stddev[gap_state]) +
                 " (relative gap " + fmt(gap) + ") at n = " +
                 std::to_string(options.n),
             gap});
      } catch (const std::runtime_error&) {
        // Nearest equilibrium not stable enough for the Lyapunov solve.
      }
    }
  }
}

}  // namespace

std::vector<Finding> check_exact(const core::ProtocolStateMachine& machine,
                                 const std::vector<std::size_t>& seed_counts,
                                 const ExactCheckOptions& options,
                                 double message_loss,
                                 sim::TokenRouting tokens) {
  std::vector<Finding> findings;

  const std::size_t lattice =
      ExactChain::state_space_size(machine.num_states(), options.n);
  if (lattice > options.max_states) {
    findings.push_back(
        {Severity::Info, "exact.state-budget", "exact chain",
         "count-vector lattice has " + std::to_string(lattice) +
             " states at n = " + std::to_string(options.n) +
             ", over the max_states budget of " +
             std::to_string(options.max_states) +
             ": exact analysis skipped (lower --exact-n or raise "
             "--exact-max-states)",
         static_cast<double>(lattice)});
    return findings;
  }

  ExactChainOptions chain_options;
  chain_options.n = options.n;
  chain_options.max_states = options.max_states;
  chain_options.max_row_branches = options.max_row_branches;
  chain_options.message_loss = message_loss;
  chain_options.tokens = tokens;
  std::optional<ExactChain> chain;
  try {
    chain.emplace(machine, chain_options);
  } catch (const ExactChainBudgetError& e) {
    findings.push_back({Severity::Info, "exact.state-budget", "exact chain",
                        std::string(e.what()) +
                            ": exact analysis skipped (lower --exact-n or "
                            "raise the budget)",
                        static_cast<double>(lattice)});
    return findings;
  } catch (const ExactChainKernelError& e) {
    findings.push_back({Severity::Error, "exact.kernel-invalid",
                        "exact chain",
                        std::string(e.what()) +
                            ": the exact tier has no verdict for this "
                            "chain",
                        0.0});
    return findings;
  }

  try {
    add_verdicts(machine, *chain, seed_counts, options, message_loss,
                 findings);
  } catch (const ExactChainSolveError& e) {
    findings.push_back({Severity::Error, "exact.solve-failed", "exact chain",
                        std::string(e.what()) +
                            ": the exact tier has no verdict for this "
                            "chain",
                        0.0});
  }
  return findings;
}

}  // namespace deproto::analysis
