#include "core/transition_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/action.hpp"

namespace deproto::core {

namespace {

void require_state(std::vector<std::size_t>& states, std::size_t s) {
  if (std::find(states.begin(), states.end(), s) == states.end()) {
    states.push_back(s);
  }
}

}  // namespace

std::vector<TransitionChannel> transition_channels(
    const ProtocolStateMachine& machine, const num::Vec& x,
    double message_loss) {
  if (x.size() != machine.num_states()) {
    throw std::invalid_argument("transition_channels: state size mismatch");
  }
  const double f = message_loss;
  std::vector<TransitionChannel> channels;
  channels.reserve(machine.actions().size());

  for (std::size_t i = 0; i < machine.actions().size(); ++i) {
    const ActionLayout l = layout_of(machine.actions()[i]);
    TransitionChannel ch{.action = i,
                         .executor = l.executor,
                         .from = l.from,
                         .to = l.to,
                         .moves_executor = l.mover == Mover::Executor};
    // The firing probability is the one per-kind formula.
    if (l.mover == Mover::Contacts) {
      // Each of the fanout probes from each executor converts an
      // x-target with probability (1-f) * x_target * q.
      ch.fire_prob = static_cast<double>(l.probes) * l.coin_bias *
                     (1.0 - f) * x[l.from];
      ch.rate = static_cast<double>(l.probes) * l.coin_bias * (1.0 - f) *
                x[l.executor] * x[l.from];
    } else if (l.judge == Judge::Any) {
      // Exact any-of-b probability, no linearization.
      const double hit = (1.0 - f) * x[l.lead_state];
      const double prob =
          1.0 - std::pow(1.0 - hit, static_cast<double>(l.probes));
      ch.fire_prob = l.coin_bias * prob;
      ch.rate = l.coin_bias * prob * x[l.executor];
    } else {
      // The coin times one surviving, matching probe per expected reply.
      double prob = l.coin_bias;
      for (std::size_t k = 0; k < l.probes; ++k) {
        prob *= (1.0 - f) * x[l.expected(k)];
      }
      ch.fire_prob = prob;
      // Tokens drop when nobody is in token_state.
      ch.rate = (ch.moves_executor || x[l.from] > 0.0) ? prob * x[l.executor]
                                                       : 0.0;
    }
    channels.push_back(ch);
  }
  return channels;
}

std::vector<ChannelShape> channel_shapes(const ProtocolStateMachine& machine) {
  std::vector<ChannelShape> shapes;
  shapes.reserve(machine.actions().size());

  for (std::size_t i = 0; i < machine.actions().size(); ++i) {
    const ActionLayout l = layout_of(machine.actions()[i]);
    ChannelShape sh{.action = i,
                    .executor = l.executor,
                    .from = l.from,
                    .to = l.to,
                    .coin_bias = l.coin_bias,
                    // Every occupancy factor is at most 1, so the coin
                    // bias bounds a firing probability; a push's bound is
                    // its expected conversions per executor.
                    .max_fire_prob = l.mover == Mover::Contacts
                                         ? static_cast<double>(l.probes) *
                                               l.coin_bias
                                         : l.coin_bias,
                    .moves_executor = l.mover == Mover::Executor};
    // The executor, the state a firing empties, and every state a reply
    // must read.
    require_state(sh.requires_occupied, l.executor);
    require_state(sh.requires_occupied, l.from);
    require_state(sh.requires_occupied, l.lead_state);
    for (const std::size_t s : l.targets) {
      require_state(sh.requires_occupied, s);
    }
    shapes.push_back(std::move(sh));
  }
  return shapes;
}

}  // namespace deproto::core
