#pragma once

// The action vocabulary of the synthesized state machines (Sections 3, 6 and
// the Section 4.1.2 push optimization). Every action is executed once per
// protocol period by each process whose current state matches the action's
// executor state. Each action carries provenance: the equation term that
// produced it.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "ode/taxonomy.hpp"

namespace deproto::core {

/// Flipping (Section 3.1): a process in `from_state` tosses a coin with
/// heads probability `coin_bias` (= p * c); on heads it moves to `to_state`.
/// Maps a term -c*x on the rhs of x-dot. Sends no messages.
struct FlippingAction {
  std::size_t from_state = 0;
  std::size_t to_state = 0;
  double coin_bias = 0.0;      // p * c (after any failure compensation)
  double rate_constant = 0.0;  // c of the source term
  ode::TermRef provenance;
};

/// One-Time-Sampling (Section 3.1): a process in `from_state` samples
/// (i_x - 1 + Sum_{y != x} i_y) processes uniformly at random and flips a
/// coin with heads probability `coin_bias`. It moves to `to_state` iff
///  (a) the first (i_x - 1) samples are in `from_state`,
///  (b) for each j, the j-th further sample matches `target_states[j]`
///      (the lexicographic expansion of prod_{y != x} y^{i_y}), and
///  (c) the coin lands heads.
struct SamplingAction {
  std::size_t from_state = 0;
  std::size_t to_state = 0;
  std::size_t same_state_samples = 0;        // i_x - 1
  std::vector<std::size_t> target_states;    // lexicographic, one per sample
  double coin_bias = 0.0;
  double rate_constant = 0.0;
  ode::TermRef provenance;
};

/// Tokenizing (Section 6): maps a negative term -c*T on the rhs of x-dot
/// with i_x = 0. A process in `executor_state` (the chosen variable w with
/// i_w >= 1) runs the flipping/sampling conditions; when they all hold it
/// does NOT transition, but creates a token and forwards it to a process in
/// `token_state` (= x), which transitions to `to_state` upon receipt. When
/// no process is in `token_state`, the token is dropped.
struct TokenizingAction {
  std::size_t executor_state = 0;            // w
  std::size_t token_state = 0;               // x, the state losing a process
  std::size_t to_state = 0;                  // state with the paired +T term
  std::size_t same_state_samples = 0;        // i_w - 1
  std::vector<std::size_t> target_states;    // other variables of T, lex.
  double coin_bias = 0.0;
  double rate_constant = 0.0;
  ode::TermRef provenance;
};

/// Push (Section 4.1.2, action (iv) of the endemic protocol): a process in
/// `executor_state` samples `fanout` processes uniformly at random; every
/// sampled process currently in `target_state` immediately transitions to
/// `to_state`. With the paired pull action at fanout b, the effective
/// contact rate is N(1-(1-b/N)^2) ~= 2b. This is the paper's protocol
/// *variant* (see errata), not an output of the pure mapping rules.
struct PushAction {
  std::size_t executor_state = 0;
  std::size_t target_state = 0;
  std::size_t to_state = 0;
  unsigned fanout = 1;
  double coin_bias = 1.0;  // applied per converted target
  ode::TermRef provenance;
};

/// A pull variant of SamplingAction used by the endemic optimization: sample
/// `fanout` targets and transition if ANY of them is in `match_state`
/// (instead of requiring an exact per-sample pattern).
struct AnyOfSamplingAction {
  std::size_t from_state = 0;
  std::size_t match_state = 0;
  std::size_t to_state = 0;
  unsigned fanout = 1;
  double coin_bias = 1.0;
  ode::TermRef provenance;
};

using Action = std::variant<FlippingAction, SamplingAction, TokenizingAction,
                            PushAction, AnyOfSamplingAction>;

/// The state whose members execute this action each period.
[[nodiscard]] std::size_t executor_state(const Action& action);

/// Number of sampling messages this action sends per period per executor
/// (Section 3's message-complexity accounting; Flipping sends none).
[[nodiscard]] std::size_t messages_per_period(const Action& action);

/// Replies to one execution's probes, in arrival order: the state each
/// probed process reported, or nullopt for a probe that was lost, went
/// unanswered, or reached a crashed process.
using ProbeReplies = std::vector<std::optional<std::size_t>>;

/// The probe rule of the asynchronous backends, where a probing action
/// (Sampling, Tokenizing, AnyOfSampling) asks its targets by message and
/// decides once the last reply is in.
struct ProbeRule {
  std::size_t probes = 0;  // probes one execution sends; 0 for Flip, Push
  bool fires = false;      // all replies in and matching; coin still to toss
};

/// Sampling needs reply k to be in the k-th state of its pattern (i_x - 1
/// copies of from_state, then target_states) and its executor still in
/// from_state, since the move is its own. Tokenizing needs the same
/// pattern over executor_state but not the executor, whose token makes the
/// move. AnyOfSampling needs one reply in match_state and its executor
/// still in from_state. `executor` is the executor's state when the last
/// reply arrives, nullopt if it crashed meanwhile. With no replies the
/// call just reports `probes`.
[[nodiscard]] ProbeRule probe_rule(
    const Action& action, std::optional<std::size_t> executor = std::nullopt,
    std::span<const std::optional<std::size_t>> replies = {});

/// Human-readable one-line description given state names.
[[nodiscard]] std::string to_string(const Action& action,
                                    std::span<const std::string> states);

}  // namespace deproto::core
