#include "core/mean_field.hpp"

#include <cmath>
#include <stdexcept>

#include "core/action.hpp"
#include "core/transition_model.hpp"

namespace deproto::core {

ode::EquationSystem mean_field(const ProtocolStateMachine& m, double f) {
  if (!(f >= 0.0 && f < 1.0)) {
    throw std::invalid_argument("mean_field: f must lie in [0, 1)");
  }
  ode::EquationSystem sys(m.state_names());
  const std::size_t n = m.num_states();

  for (const Action& action : m.actions()) {
    const ActionLayout l = layout_of(action);
    std::vector<unsigned> exps(n, 0U);
    exps[l.executor] += 1;  // the executing process itself
    double rate = 0.0;
    if (l.mover == Mover::Contacts || l.judge == Judge::Any) {
      // Push (executor converts sampled processes in `from`) and pull
      // (executor converts if any of b samples is in the match state):
      // linearized drift = fanout * q * (1-f) * executor * lead_state.
      exps[l.lead_state] += 1;
      rate = static_cast<double>(l.probes) * l.coin_bias * (1.0 - f);
    } else {
      // Flipping, Sampling, Tokenizing: the firing monomial is over the
      // executor's term, one factor per expected reply; a token moves a
      // process out of token_state (assumed non-empty).
      for (std::size_t k = 0; k < l.probes; ++k) exps[l.expected(k)] += 1;
      rate = l.coin_bias *
             std::pow(1.0 - f, static_cast<double>(l.probes));
    }
    sys.add_term(l.from, ode::Term(-rate, exps));
    sys.add_term(l.to, ode::Term(+rate, std::move(exps)));
  }
  return sys;
}

num::Vec exact_drift(const ProtocolStateMachine& m, const num::Vec& x,
                     double f) {
  if (x.size() != m.num_states()) {
    throw std::invalid_argument("exact_drift: state size mismatch");
  }
  num::Vec drift(m.num_states(), 0.0);
  // Per-action rates (including the token-drop gate) live in the shared
  // transition model; the drift is just their mass balance.
  for (const TransitionChannel& ch : transition_channels(m, x, f)) {
    drift[ch.from] -= ch.rate;
    drift[ch.to] += ch.rate;
  }
  return drift;
}

bool verifies_equivalence(const ProtocolStateMachine& m,
                          const ode::EquationSystem& source, double f,
                          double tol) {
  const ode::EquationSystem derived = mean_field(m, f);
  const ode::EquationSystem expected =
      source.scaled(m.normalizing_p());
  return ode::equivalent(derived, expected, tol);
}

}  // namespace deproto::core
