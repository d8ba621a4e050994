#include "core/action.hpp"

#include <sstream>

namespace deproto::core {

namespace {

const std::string& state_name(std::span<const std::string> states,
                              std::size_t id) {
  static const std::string kUnknown = "?";
  return id < states.size() ? states[id] : kUnknown;
}

}  // namespace

ActionLayout layout_of(const Action& action) {
  return std::visit(
      [](const auto& a) -> ActionLayout {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, FlippingAction>) {
          return {.executor = a.from_state,
                  .from = a.from_state,
                  .to = a.to_state,
                  .coin_bias = a.coin_bias,
                  .lead_state = a.from_state};
        } else if constexpr (std::is_same_v<T, SamplingAction>) {
          return {.executor = a.from_state,
                  .from = a.from_state,
                  .to = a.to_state,
                  .judge = Judge::All,
                  .coin_bias = a.coin_bias,
                  .probes = a.same_state_samples + a.target_states.size(),
                  .lead = a.same_state_samples,
                  .lead_state = a.from_state,
                  .targets = a.target_states};
        } else if constexpr (std::is_same_v<T, TokenizingAction>) {
          return {.executor = a.executor_state,
                  .from = a.token_state,
                  .to = a.to_state,
                  .mover = Mover::Token,
                  .judge = Judge::All,
                  .coin_bias = a.coin_bias,
                  .probes = a.same_state_samples + a.target_states.size(),
                  .lead = a.same_state_samples,
                  .lead_state = a.executor_state,
                  .targets = a.target_states};
        } else if constexpr (std::is_same_v<T, PushAction>) {
          return {.executor = a.executor_state,
                  .from = a.target_state,
                  .to = a.to_state,
                  .mover = Mover::Contacts,
                  .coin_bias = a.coin_bias,
                  .probes = a.fanout,
                  .lead = a.fanout,
                  .lead_state = a.target_state};
        } else if constexpr (std::is_same_v<T, AnyOfSamplingAction>) {
          return {.executor = a.from_state,
                  .from = a.from_state,
                  .to = a.to_state,
                  .judge = Judge::Any,
                  .coin_bias = a.coin_bias,
                  .probes = a.fanout,
                  .lead = a.fanout,
                  .lead_state = a.match_state};
        }
      },
      action);
}

std::size_t executor_state(const Action& action) {
  return layout_of(action).executor;
}

std::size_t messages_per_period(const Action& action) {
  const ActionLayout layout = layout_of(action);
  return layout.probes + (layout.mover == Mover::Token ? 1 : 0);
}

ProbeRule probe_rule(const Action& action, std::optional<std::size_t> executor,
                     std::span<const std::optional<std::size_t>> replies) {
  const ActionLayout l = layout_of(action);
  if (l.judge == Judge::None) return {};
  ProbeRule rule{.probes = l.probes};
  if (replies.size() != l.probes) return rule;
  if (l.mover == Mover::Executor && executor != l.executor) return rule;
  std::size_t matches = 0;
  for (std::size_t k = 0; k < l.probes; ++k) {
    matches += replies[k] == l.expected(k) ? 1 : 0;
  }
  rule.fires = l.judge == Judge::Any ? matches > 0 : matches == l.probes;
  return rule;
}

std::string to_string(const Action& action,
                      std::span<const std::string> states) {
  std::ostringstream out;
  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, FlippingAction>) {
          out << "[" << state_name(states, a.from_state)
              << "] flip coin(p=" << a.coin_bias << "); heads -> "
              << state_name(states, a.to_state);
        } else if constexpr (std::is_same_v<T, SamplingAction>) {
          out << "[" << state_name(states, a.from_state) << "] sample "
              << (a.same_state_samples + a.target_states.size())
              << " target(s): " << a.same_state_samples << "x own-state";
          for (std::size_t s : a.target_states) {
            out << ", " << state_name(states, s);
          }
          out << "; coin(p=" << a.coin_bias << "); all match + heads -> "
              << state_name(states, a.to_state);
        } else if constexpr (std::is_same_v<T, TokenizingAction>) {
          out << "[" << state_name(states, a.executor_state) << "] sample "
              << (a.same_state_samples + a.target_states.size())
              << " target(s)";
          for (std::size_t s : a.target_states) {
            out << ", " << state_name(states, s);
          }
          out << "; coin(p=" << a.coin_bias
              << "); on success send token to a process in "
              << state_name(states, a.token_state) << ", moving it to "
              << state_name(states, a.to_state);
        } else if constexpr (std::is_same_v<T, PushAction>) {
          out << "[" << state_name(states, a.executor_state) << "] push: "
              << "sample " << a.fanout << " target(s); any in "
              << state_name(states, a.target_state) << " -> "
              << state_name(states, a.to_state) << " (coin " << a.coin_bias
              << ")";
        } else if constexpr (std::is_same_v<T, AnyOfSamplingAction>) {
          out << "[" << state_name(states, a.from_state) << "] pull: sample "
              << a.fanout << " target(s); if any in "
              << state_name(states, a.match_state) << " -> "
              << state_name(states, a.to_state) << " (coin " << a.coin_bias
              << ")";
        }
      },
      action);
  return out.str();
}

}  // namespace deproto::core
