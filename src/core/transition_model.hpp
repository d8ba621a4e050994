#pragma once
// Per-period transition-probability extraction shared by every consumer of
// a ProtocolStateMachine's dynamics: the mean-field drift (exact_drift),
// the CLT noise model (fluctuations.cpp), and the count period
// (sim/count_period.hpp) that the count backend samples and the exact
// chain enumerates. Each action contributes exactly one channel
// describing who attempts it, what mass moves where, and with what
// per-executor firing probability at a given population point x. Who and
// where come from the action's core::layout_of; only the firing
// probability is a per-kind formula here.

#include <cstddef>
#include <vector>

#include "core/state_machine.hpp"
#include "numerics/vector.hpp"

namespace deproto::core {

/// One action's transition channel at a population point x (fractions of N
/// for the mean-field consumers; per-probe hit probabilities for the count
/// backend). `fire_prob` is the probability that a single executor fires
/// the action this period; `rate` is the expected population fraction
/// moved from -> to, i.e. fire_prob * x[executor] with the token-drop gate
/// applied (a Tokenizing channel's rate is 0 when x[token_state] <= 0).
///
/// For PushAction the "firing" is a conversion of a *target*: `executor`
/// is still the pushing state, but `from` is the converted target state
/// and `fire_prob` is the expected conversions per executor
/// (fanout * coin * (1-f) * x[target], the linearized form exact_drift
/// uses). Count-level consumers that need the per-contact conversion
/// probability should read the action's core::layout_of instead.
struct TransitionChannel {
  std::size_t action = 0;    ///< index into machine.actions()
  std::size_t executor = 0;  ///< state whose members attempt the action
  std::size_t from = 0;      ///< state mass leaves when the action fires
  std::size_t to = 0;        ///< state mass enters when the action fires
  double fire_prob = 0.0;    ///< per-executor firing probability at x
  double rate = 0.0;         ///< expected moved mass (fraction of N)
  bool moves_executor = false;  ///< from == executor (self-transition)
};

/// Evaluate every action of `machine` at the point `x` under message-loss
/// probability `message_loss`. Channels are returned in machine.actions()
/// order, one per action, so channels[i] corresponds to actions()[i] and
/// per-state consumers can index them through actions_of(state).
[[nodiscard]] std::vector<TransitionChannel> transition_channels(
    const ProtocolStateMachine& machine, const num::Vec& x,
    double message_loss = 0.0);

/// Point-free structure of one action's channel: who must be occupied for
/// the action to fire, where mass moves, and the worst-case per-executor
/// firing probability over the whole simplex (every occupancy factor at
/// its maximum 1). This is the static view the analysis layer checks
/// without running a period: `max_fire_prob` bounds `fire_prob` of
/// transition_channels at every feasible x, and `requires_occupied` lists
/// the states whose emptiness gates the channel (executor, sampling
/// targets, and the token state for Tokenizing).
///
/// For PushAction, `max_fire_prob` is the expected conversions per
/// executor (fanout * coin), which legitimately exceeds 1 at fanout > 1:
/// it is a rate bound, not a probability, mirroring TransitionChannel.
struct ChannelShape {
  std::size_t action = 0;    ///< index into machine.actions()
  std::size_t executor = 0;  ///< state whose members attempt the action
  std::size_t from = 0;      ///< state mass leaves when the action fires
  std::size_t to = 0;        ///< state mass enters when the action fires
  double coin_bias = 0.0;    ///< the action's raw coin bias
  double max_fire_prob = 0.0;   ///< sup over the simplex of fire_prob
  bool moves_executor = false;  ///< from == executor (self-transition)
  std::vector<std::size_t> requires_occupied;  ///< gating states, deduped
};

/// The structural channel per action, in machine.actions() order (so
/// shapes[i] corresponds to actions()[i], like transition_channels).
[[nodiscard]] std::vector<ChannelShape> channel_shapes(
    const ProtocolStateMachine& machine);

}  // namespace deproto::core
