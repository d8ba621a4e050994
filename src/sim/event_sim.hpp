#pragma once

// Fully asynchronous execution backend. Each process runs its own
// protocol-period timer (arbitrary phase, bounded drift -- the paper's
// clock model), sampling probes are real request/response message pairs
// over the unreliable network, and decisions are taken when the last
// response (or loss surrogate) arrives. This validates that the protocols
// need no global clock, synchronization, or agreement.
//
// Each action's layout (core::layout_of) and probe rule (core::probe_rule,
// the verdict over a full reply vector) are the ones every tier runs; the
// fault surface (fault_plan::Scheduler) is shared with the net backend.
// This file only says how a probe, push or token travels: as closures
// over sim::Network.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/state_machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/group.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"

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

class EventSimulator final : public Simulator {
 public:
  /// Interpret a synthesized state machine, one independent timer per
  /// process.
  EventSimulator(std::size_t n, core::ProtocolStateMachine machine,
                 std::uint64_t seed, EventSimOptions options = {});

  [[nodiscard]] Group& group() noexcept override { return group_; }
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  [[nodiscard]] MetricsCollector& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] Rng& rng() noexcept override { return rng_; }
  [[nodiscard]] std::size_t num_states() const noexcept override {
    return group_.num_states();
  }
  [[nodiscard]] std::size_t count(std::size_t state) const override {
    return group_.count(state);
  }
  [[nodiscard]] std::size_t total_alive() const noexcept override {
    return group_.total_alive();
  }
  [[nodiscard]] const Network& network() const noexcept { return network_; }
  [[nodiscard]] double now() const noexcept override { return queue_.now(); }

  void seed_states(const std::vector<std::size_t>& counts) override {
    group_.seed_states(counts);
  }
  void schedule_massive_failure(double time, double fraction) override {
    faults_.schedule_massive_failure(time, fraction);
  }
  /// Crash one process at `time`; if `recover_time` >= 0, revive it then
  /// into state 0.
  void schedule_crash(ProcessId pid, double time,
                      double recover_time = -1.0) override {
    faults_.schedule_crash(pid, time, recover_time);
  }
  void set_crash_recovery(double crash_prob,
                          double mean_downtime_periods) override {
    faults_.set_crash_recovery(crash_prob, mean_downtime_periods);
  }
  void attach_churn(const ChurnTrace& trace,
                    double periods_per_hour) override {
    faults_.attach_churn(trace, periods_per_hour);
  }

  /// Run until absolute time `t_end` (periods); metrics sample each unit.
  void run_until(double t_end);

  /// Simulator interface: run_until(now() + periods).
  void run_for(double periods) override;

 private:
  void arm_timer(ProcessId pid);
  void on_tick(ProcessId pid, std::uint64_t epoch);
  void run_action(ProcessId pid, const core::Action& action);
  // A probing action's round trip: the request reaches `target` (which
  // answers with its live state, if any), each reply or loss lands in
  // wait `w`, and the last one decides.
  void on_probe(std::uint32_t w, ProcessId target);
  void on_reply(std::uint32_t w, std::optional<std::size_t> state);
  void decide(ProcessId pid, const core::Action& action,
              std::span<const std::optional<std::size_t>> replies);
  void route_token(std::size_t token_state, std::size_t to_state);
  void route_token_walk(std::size_t token_state, std::size_t to_state,
                        unsigned ttl_left);

  /// One probing action awaiting its replies. Records are pooled (free
  /// list below) and keep their replies' capacity across reuse, so the
  /// probe path does not allocate in steady state; queued closures carry
  /// the record's index.
  struct ProbeWait {
    ProcessId pid = 0;
    const core::Action* action = nullptr;
    std::size_t expected = 0;
    core::ProbeReplies replies;
  };

  core::ProtocolStateMachine machine_;
  EventSimOptions options_;
  EventQueue queue_;
  Rng rng_;
  Group group_;
  Network network_;
  MetricsCollector metrics_;
  fault_plan::Scheduler faults_;
  std::vector<double> period_of_;  // per-process period length
  // Guards against stale timers: bumped on every crash, so a tick armed
  // before the crash is ignored even if the process recovered meanwhile.
  std::vector<std::uint64_t> timer_epoch_;
  std::vector<ProbeWait> waits_;
  std::vector<std::uint32_t> free_waits_;
  double next_sample_ = 0.0;
};

}  // namespace deproto::sim
