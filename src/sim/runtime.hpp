#pragma once

// Generic interpreter: execute any synthesized ProtocolStateMachine over a
// simulated group, one protocol period at a time. Every action kind runs
// through its core::layout_of: Flipping, Sampling, Tokenizing and
// AnyOfSampling share one probe loop that judges replies in order and
// stops at the first decisive one (ActionLayout::judge_in_order, which
// agrees with the event/net core::probe_rule); only Push contacts and the
// token hand-off run apart. Supports message-loss injection and both token
// routing modes of Section 6 (full-membership directory, or TTL-bounded
// random walk).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/state_machine.hpp"
#include "sim/protocol.hpp"

namespace deproto::sim {

struct TokenRouting {
  enum class Mode {
    /// The executor knows which processes are in the target state (e.g. via
    /// a SWIM-style membership service) and hands the token straight to one
    /// of them; the token drops only when the state is empty.
    Directory,
    /// The token performs a random walk with a time-to-live; it drops when
    /// the TTL expires before meeting a process in the target state.
    RandomWalkTtl,
  };
  Mode mode = Mode::Directory;
  unsigned ttl = 8;

  friend bool operator==(const TokenRouting&, const TokenRouting&) = default;
};

struct RuntimeOptions {
  /// Per-connection-attempt failure probability f: every sampling probe
  /// (and push contact) independently fails with this probability.
  double message_loss = 0.0;
  TokenRouting tokens;
  /// Synchronous-update semantics: all actions read the states as of the
  /// period start (a "Jacobi" sweep), so the expected one-period update
  /// equals core::exact_drift exactly at any rate. The default (false)
  /// is the live "Gauss-Seidel" semantics of a real deployment, where a
  /// process observes the target's state at probe time; the two agree to
  /// O(rate^2) per period.
  bool simultaneous_updates = false;
  /// Opt-in pre-flight: run the static protocol verifier (analysis layer)
  /// before launching and refuse to run a machine with error-severity
  /// findings. Consumed by api::Experiment, ignored by the executor; off
  /// by default so existing specs, cache keys, and runs are untouched.
  bool verify_static = false;
  /// Opt-in pre-flight, one tier up: additionally build the exact
  /// finite-N Markov chain (analysis/exact_chain.hpp, at the analyzer's
  /// default small n) and refuse to launch on error findings *or* an
  /// exact.transient-trap -- a protocol the exact chain provably parks
  /// somewhere the mean field never predicted. Implies the static pass.
  /// Consumed by api::Experiment, ignored by the executor.
  bool verify_exact = false;

  friend bool operator==(const RuntimeOptions&,
                         const RuntimeOptions&) = default;
};

struct TokenStats {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

class MachineExecutor final : public PeriodicProtocol {
 public:
  explicit MachineExecutor(core::ProtocolStateMachine machine,
                           RuntimeOptions options = {});
  // layouts_ views machine_'s actions, so a copy would dangle.
  MachineExecutor(const MachineExecutor&) = delete;
  MachineExecutor& operator=(const MachineExecutor&) = delete;

  [[nodiscard]] std::size_t num_states() const override {
    return machine_.num_states();
  }

  void execute_period(Group& group, Rng& rng) override;

  [[nodiscard]] const core::ProtocolStateMachine& machine() const noexcept {
    return machine_;
  }
  [[nodiscard]] const TokenStats& token_stats() const noexcept {
    return tokens_;
  }

  /// Sampling probes and push contacts sent in total.
  [[nodiscard]] std::uint64_t probes_total() const noexcept {
    return probes_total_;
  }

 private:
  /// Probe a target: returns its state, or nullopt if the connection
  /// attempt failed (message loss or crashed target).
  [[nodiscard]] std::optional<std::size_t> probe(const Group& group,
                                                 ProcessId self, Rng& rng);

  void route_token(Group& group, Rng& rng, std::size_t token_state,
                   std::size_t to_state);

  core::ProtocolStateMachine machine_;
  std::vector<core::ActionLayout> layouts_;  // per action, built once
  RuntimeOptions options_;
  TokenStats tokens_;
  std::uint64_t probes_total_ = 0;
  std::vector<ProcessId> order_;  // scratch: per-period iteration order
  // Period-start snapshot used by simultaneous_updates mode.
  std::vector<std::uint8_t> snap_state_;
  std::vector<std::uint8_t> snap_alive_;
};

}  // namespace deproto::sim
