#pragma once

// Fully asynchronous execution backend. Each process runs its own
// protocol-period timer (arbitrary phase, bounded drift -- the paper's
// clock model), sampling probes are real request/response message pairs
// over the unreliable network, and decisions are taken when the last
// response (or loss surrogate) arrives. This validates that the protocols
// need no global clock, synchronization, or agreement.
//
// The timers, the action interpreter, token routing, faults and metrics
// are sim::AsyncRuntime's, shared with the net backend. This file is only
// the synthetic carrier: a probe, its reply, a push or a token is a
// closure over sim::Network, and advancing time is running the queue.

#include <cstddef>
#include <cstdint>

#include "core/state_machine.hpp"
#include "sim/async_runtime.hpp"
#include "sim/network.hpp"

namespace deproto::sim {

struct EventSimOptions {
  NetworkOptions network;
  /// Per-process period = 1 * Uniform(1 - drift, 1 + drift).
  double clock_drift = 0.05;
  /// Token routing (shared with the sync runtime's RuntimeOptions):
  /// directory handoff, or TTL-bounded random walks riding on real
  /// messages.
  TokenRouting tokens;
};

class EventSimulator final : public AsyncRuntime {
 public:
  /// Interpret a synthesized state machine, one independent timer per
  /// process.
  EventSimulator(std::size_t n, core::ProtocolStateMachine machine,
                 std::uint64_t seed, EventSimOptions options = {});

  [[nodiscard]] const Network& network() const noexcept { return network_; }

  /// Run until absolute time `t_end` (periods); metrics sample each unit.
  using AsyncRuntime::run_until;

 private:
  void send_push(ProcessId from, ProcessId to,
                 const core::ActionLayout& layout) override;
  void send_probe(ProcessId from, ProcessId to, std::uint32_t wait) override;
  bool send_token(ProcessId from, ProcessId to, std::size_t token_state,
                  std::size_t to_state, unsigned hops_left) override;
  void advance_to(double t_end) override { queue_.run_until(t_end); }
  void on_recovered(ProcessId pid) override { arm_timer(pid); }

  Network network_;
};

}  // namespace deproto::sim
