#pragma once

// The action vocabulary of the synthesized state machines (Sections 3, 6 and
// the Section 4.1.2 push optimization). Every action is executed once per
// protocol period by each process whose current state matches the action's
// executor state. Each action carries provenance: the equation term that
// produced it.

#include <cstddef>
#include <cstdint>
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

/// What one firing moves.
enum class Mover : std::uint8_t {
  Executor,  ///< the executor itself (Flipping, Sampling, AnyOfSampling)
  Token,     ///< the receiver of the executor's token (Tokenizing)
  Contacts,  ///< each contact found in `from`, on its own coin (Push)
};

/// How one execution's probe replies decide whether it fires.
enum class Judge : std::uint8_t {
  None,  ///< no verdict over replies: Flipping (coin only), Push (per contact)
  All,   ///< every reply must match (Sampling, Tokenizing)
  Any,   ///< one matching reply suffices (AnyOfSampling)
};

/// The one statement of an action kind's semantics that every tier runs:
/// the sync interpreter, the event and net probe rule, the count period
/// and exact chain (through transition_channels), and the mean field.
/// Non-allocating: `targets` views the action's own vector, so a layout
/// must not outlive its action.
struct ActionLayout {
  std::size_t executor = 0;  ///< state whose members execute the action
  std::size_t from = 0;      ///< state a firing moves mass out of
  std::size_t to = 0;        ///< state a firing moves mass into
  Mover mover = Mover::Executor;
  Judge judge = Judge::None;
  double coin_bias = 0.0;
  /// Processes one execution samples (Push: its contacts); the Tokenizing
  /// hand-off message is not one.
  std::size_t probes = 0;
  std::size_t lead = 0;        ///< replies [0, lead) must read lead_state
  std::size_t lead_state = 0;  ///< i_x - 1 copies of the executor state,
                               ///< the pull's match state, a push target
  std::span<const std::size_t> targets;  ///< reply lead + j reads targets[j]

  /// The state reply k (k < probes) must read.
  [[nodiscard]] std::size_t expected(std::size_t k) const noexcept {
    return k < lead ? lead_state : targets[k - lead];
  }

  /// Judges replies in arrival order and stops at the first decisive one,
  /// a mismatch under All or a match under Any: `reply(k)` yields reply k
  /// and is not called past that point. Returns whether the execution
  /// fires, the coin still to toss (Flipping: always). probe_rule's verdict
  /// over the full reply vector agrees. Not for Push, which judges each
  /// contact on its own.
  template <class Reply>
  [[nodiscard]] bool judge_in_order(Reply&& reply) const {
    const bool any = judge == Judge::Any;
    for (std::size_t k = 0; k < probes; ++k) {
      if ((reply(k) == expected(k)) == any) return any;
    }
    return !any;
  }
};

[[nodiscard]] ActionLayout layout_of(const Action& action);

/// The state whose members execute this action each period.
[[nodiscard]] std::size_t executor_state(const Action& action);

/// Number of messages this action sends per period per executor: its
/// probes plus the Tokenizing hand-off (Section 3's message-complexity
/// accounting; Flipping sends none).
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
  bool fires = false;      // every reply in, judge holds; coin still to toss
};

/// A full reply vector fires when its layout's judge holds over it (every
/// reply k reads expected(k), or one does under Any) and, for an action
/// that moves its executor, the executor is still in its state; a
/// Tokenizing executor need not be, since its token makes the move.
/// `executor` is the executor's state when the last reply arrives, nullopt
/// if it crashed meanwhile. With no replies the call just reports
/// `probes`.
[[nodiscard]] ProbeRule probe_rule(
    const Action& action, std::optional<std::size_t> executor = std::nullopt,
    std::span<const std::optional<std::size_t>> replies = {});

/// Human-readable one-line description given state names.
[[nodiscard]] std::string to_string(const Action& action,
                                    std::span<const std::string> states);

}  // namespace deproto::core
