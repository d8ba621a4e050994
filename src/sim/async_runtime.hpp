#pragma once

// The asynchronous runtime the event and net backends share. Each process
// runs its own protocol-period timer (arbitrary phase, bounded drift: the
// paper's clock model, with no global clock), and each tick runs the
// actions of the process's state through their core::layout_of: a
// Flipping coin, Push contacts, or probes whose replies core::probe_rule
// judges once the last one is in, then the coin, then the move or the
// Tokenizing hand-off (directory or TTL random walk). Faults run through
// fault_plan::Scheduler; metrics sample every whole period.
//
// A backend is only a carrier: it says how a push, a probe and a token
// travel (closures over sim::Network, or UDP datagrams) and how time
// advances, and it hands arrivals back through push_arrived,
// reply_arrived and token_arrived. The interpreter and the order of its
// draws on the shared Rng are therefore the same on both backends.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/group.hpp"
#include "sim/metrics.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"

namespace deproto::sim {

class AsyncRuntime : public Simulator {
 public:
  // Queued closures and the fault hooks hold `this`.
  AsyncRuntime(const AsyncRuntime&) = delete;
  AsyncRuntime& operator=(const AsyncRuntime&) = delete;

  [[nodiscard]] Group& group() noexcept override { return group_; }
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  [[nodiscard]] MetricsCollector& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] Rng& rng() noexcept override { return rng_; }
  [[nodiscard]] double now() const noexcept override { return queue_.now(); }
  [[nodiscard]] std::size_t num_states() const noexcept override {
    return group_.num_states();
  }
  [[nodiscard]] std::size_t count(std::size_t state) const override {
    return group_.count(state);
  }
  [[nodiscard]] std::size_t total_alive() const noexcept override {
    return group_.total_alive();
  }
  /// Tokens generated, delivered and dropped (lost in transit, expired,
  /// or with no receiver in the token state).
  [[nodiscard]] const TokenStats& token_stats() const noexcept {
    return tokens_;
  }

  void seed_states(const std::vector<std::size_t>& counts) override {
    group_.seed_states(counts);
  }
  void schedule_massive_failure(double time, double fraction) override {
    faults_.schedule_massive_failure(time, fraction);
  }
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
  /// run_until(now() + periods).
  void run_for(double periods) override;

 protected:
  /// Draws each process's period, Uniform(1 - drift, 1 + drift), then its
  /// phase, in pid order. Throws std::invalid_argument unless clock_drift
  /// lies in [0, 0.5).
  AsyncRuntime(std::size_t n, core::ProtocolStateMachine machine,
               std::uint64_t seed, double clock_drift, TokenRouting tokens);

  // The carrier. A push arrives as push_arrived(to, from, to_state,
  // coin). Every probe ends in exactly one reply_arrived(wait, ...),
  // nullopt when it or its reply was lost or never answered. A token
  // arrives as token_arrived; send_token returns false when it was lost
  // on sending.
  virtual void send_push(ProcessId from, ProcessId to,
                         const core::ActionLayout& layout) = 0;
  virtual void send_probe(ProcessId from, ProcessId to,
                          std::uint32_t wait) = 0;
  virtual bool send_token(ProcessId from, ProcessId to,
                          std::size_t token_state, std::size_t to_state,
                          unsigned hops_left) = 0;
  /// Run the queue up to `t_end`.
  virtual void advance_to(double t_end) = 0;
  // What a crash, a revival into state 0 and a churn departure mean for
  // the carrier; the runtime has already fenced off the stale timer.
  virtual void on_crashed(ProcessId /*pid*/) {}
  virtual void on_recovered(ProcessId pid) = 0;
  virtual void on_departing(ProcessId /*pid*/) {}

  void push_arrived(ProcessId at, std::size_t from, std::size_t to,
                    double coin);
  void reply_arrived(std::uint32_t wait, std::optional<std::size_t> state);
  void token_arrived(ProcessId at, std::size_t token_state,
                     std::size_t to_state, unsigned hops_left);

  /// Arm `pid`'s next tick one period from now, or (start_timer) at a
  /// random phase within its first period.
  void arm_timer(ProcessId pid);
  void start_timer(ProcessId pid);

  /// Sample metrics at every whole period up to `t_end`, advancing the
  /// carrier between samples.
  void run_until(double t_end);

  core::ProtocolStateMachine machine_;
  Rng rng_;
  EventQueue queue_;
  Group group_;
  MetricsCollector metrics_;
  fault_plan::Scheduler faults_;

 private:
  /// One probing action awaiting its replies. Records are pooled (free
  /// list below) and keep their replies' capacity across reuse, so the
  /// probe path does not allocate in steady state; carriers name a
  /// record by its index.
  struct ProbeWait {
    ProcessId pid = 0;
    std::size_t action = 0;
    core::ProbeReplies replies;
  };

  void on_tick(ProcessId pid, std::uint64_t epoch);
  void run_action(ProcessId pid, std::size_t action);
  void decide(ProcessId pid, std::size_t action,
              std::span<const std::optional<std::size_t>> replies);
  void route_token(ProcessId from, std::size_t token_state,
                   std::size_t to_state);

  std::vector<core::ActionLayout> layouts_;  // per action, built once
  TokenRouting routing_;
  TokenStats tokens_;
  std::vector<double> period_of_;  // per-process period length
  // Guards against stale timers: bumped on every crash, so a tick armed
  // before the crash is ignored even if the process recovered meanwhile.
  std::vector<std::uint64_t> timer_epoch_;
  std::vector<ProbeWait> waits_;
  std::vector<std::uint32_t> free_waits_;
  double next_sample_ = 0.0;
};

}  // namespace deproto::sim
