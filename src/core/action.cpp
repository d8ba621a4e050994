#include "core/action.hpp"

#include <algorithm>
#include <sstream>

namespace deproto::core {

namespace {

const std::string& state_name(std::span<const std::string> states,
                              std::size_t id) {
  static const std::string kUnknown = "?";
  return id < states.size() ? states[id] : kUnknown;
}

}  // namespace

std::size_t executor_state(const Action& action) {
  return std::visit(
      [](const auto& a) -> std::size_t {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, FlippingAction> ||
                      std::is_same_v<T, SamplingAction> ||
                      std::is_same_v<T, AnyOfSamplingAction>) {
          return a.from_state;
        } else if constexpr (std::is_same_v<T, TokenizingAction> ||
                             std::is_same_v<T, PushAction>) {
          return a.executor_state;
        }
      },
      action);
}

std::size_t messages_per_period(const Action& action) {
  return std::visit(
      [](const auto& a) -> std::size_t {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, FlippingAction>) {
          return 0;
        } else if constexpr (std::is_same_v<T, SamplingAction>) {
          return a.same_state_samples + a.target_states.size();
        } else if constexpr (std::is_same_v<T, TokenizingAction>) {
          // Sampling probes plus the token hand-off message itself.
          return a.same_state_samples + a.target_states.size() + 1;
        } else if constexpr (std::is_same_v<T, PushAction> ||
                             std::is_same_v<T, AnyOfSamplingAction>) {
          return a.fanout;
        }
      },
      action);
}

ProbeRule probe_rule(const Action& action, std::optional<std::size_t> executor,
                     std::span<const std::optional<std::size_t>> replies) {
  // Replies [0, same) must be in `same_state`, then one per target state.
  const auto pattern_holds = [&](std::size_t same, std::size_t same_state,
                                 const std::vector<std::size_t>& targets) {
    if (replies.size() != same + targets.size()) return false;
    for (std::size_t at = 0; at < same; ++at) {
      if (replies[at] != same_state) return false;
    }
    return std::equal(targets.begin(), targets.end(), replies.begin() + same);
  };
  return std::visit(
      [&](const auto& a) -> ProbeRule {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, SamplingAction>) {
          const std::size_t same = a.same_state_samples;
          return {same + a.target_states.size(),
                  executor == a.from_state &&
                      pattern_holds(same, a.from_state, a.target_states)};
        } else if constexpr (std::is_same_v<T, TokenizingAction>) {
          const std::size_t same = a.same_state_samples;
          return {same + a.target_states.size(),
                  pattern_holds(same, a.executor_state, a.target_states)};
        } else if constexpr (std::is_same_v<T, AnyOfSamplingAction>) {
          const bool any = std::find(replies.begin(), replies.end(),
                                     a.match_state) != replies.end();
          return {a.fanout, replies.size() == a.fanout &&
                                executor == a.from_state && any};
        } else {
          return {};
        }
      },
      action);
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
