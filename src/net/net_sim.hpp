#pragma once

// The real-network execution backend: a fourth sim::Simulator that binds
// the synthesized state machines to actual UDP sockets on loopback. Each
// process owns one bound socket; sampling probes, pushes, and tokens are
// real datagrams (net/packet.hpp); protocol periods are driven off
// wall-clock timers (options.period_ms per protocol period, with the
// same per-process drift model as the event backend); and loss, RTT,
// reordering, and duplication are *measured* properties of the kernel's
// network stack instead of synthetic draws -- an unanswered probe is
// declared lost after options.probe_timeout periods, exactly the timeout
// surrogate a deployed gossip node would use.
//
// Simulation time is still counted in fractional protocol periods (the
// Simulator contract), paced against the wall clock: one period of sim
// time elapses per period_ms of real time. The fault surface -- massive
// failures, targeted crashes, background crash-recovery, churn playback
// -- maps onto socket lifecycle: a crash closes the socket mid-flight
// (peers see timeouts, not errors), a churn departure gossips a Leave
// first, and every revival rebinds the port and runs a Join/JoinAck
// handshake before the node's period timer starts again.
//
// All N nodes live in one OS process (loopback deployment); group state
// is shared, so directory token routing and population metrics read the
// same oracle the event backend uses. The action layouts and probe rule
// (core::layout_of, core::probe_rule) are every tier's, and the fault
// surface (sim::fault_plan::Scheduler) is the event backend's own, so the
// loopback equivalence suite can pin net steady states against
// sync/event/mean-field; this file only says how a probe, push or token
// travels: as datagrams.

#include <netinet/in.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/state_machine.hpp"
#include "net/packet.hpp"
#include "net/socket.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/group.hpp"
#include "sim/metrics.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"

namespace deproto::net {

struct NetSimOptions {
  /// Wall-clock milliseconds per protocol period. The protocols tolerate
  /// any value (periods are just gossip rounds); short periods make
  /// loopback tests fast, long ones make RTTs negligible by comparison.
  double period_ms = 20.0;
  /// Probe loss surrogate: a probe unanswered for this many periods
  /// resolves as lost (the nullopt the machines already understand).
  double probe_timeout = 0.5;
  /// Emulated send-side drop probability, so synthetic loss experiments
  /// (runtime.message_loss) compose with measured loopback behavior.
  double message_loss = 0.0;
  /// Per-process period = period_ms * Uniform(1 - drift, 1 + drift).
  double clock_drift = 0.05;
  /// Token routing (shared vocabulary with the other backends).
  sim::TokenRouting tokens;
};

/// Measured network behavior, aggregated over the whole run.
struct NetStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t emulated_drops = 0;  // message_loss knob, counted not sent
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_timeouts = 0;  // the measured-loss numerator
  std::uint64_t reordered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t joins = 0;   // Join handshakes acked by peers
  std::uint64_t leaves = 0;  // graceful departures observed by peers
  std::uint64_t rtt_samples = 0;
  double rtt_ms_min = 0.0;
  double rtt_ms_max = 0.0;
  double rtt_ms_sum = 0.0;

  [[nodiscard]] double rtt_ms_mean() const {
    return rtt_samples == 0 ? 0.0
                            : rtt_ms_sum / static_cast<double>(rtt_samples);
  }
  /// probe_timeouts / probes_sent -- the measured counterpart of the
  /// synthetic backends' message_loss.
  [[nodiscard]] double observed_loss() const {
    return probes_sent == 0
               ? 0.0
               : static_cast<double>(probe_timeouts) /
                     static_cast<double>(probes_sent);
  }
};

class NetSimulator final : public sim::Simulator {
 public:
  /// Socket-per-node puts a hard ceiling on N (fd budget and poll cost);
  /// gigascale runs belong on the count backend.
  static constexpr std::size_t kMaxNodes = 1024;

  /// Binds n loopback sockets immediately. Throws std::invalid_argument
  /// for n outside [2, kMaxNodes] or bad options; std::system_error when
  /// the kernel refuses a socket.
  NetSimulator(std::size_t n, core::ProtocolStateMachine machine,
               std::uint64_t seed, NetSimOptions options = {});

  [[nodiscard]] sim::Group& group() noexcept override { return group_; }
  [[nodiscard]] sim::MetricsCollector& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] sim::Rng& rng() noexcept override { return rng_; }
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

  void seed_states(const std::vector<std::size_t>& counts) override {
    group_.seed_states(counts);
  }
  void schedule_massive_failure(double time, double fraction) override {
    faults_.schedule_massive_failure(time, fraction);
  }
  void schedule_crash(sim::ProcessId pid, double time,
                      double recover_time = -1.0) override {
    faults_.schedule_crash(pid, time, recover_time);
  }
  void set_crash_recovery(double crash_prob,
                          double mean_downtime_periods) override {
    faults_.set_crash_recovery(crash_prob, mean_downtime_periods);
  }
  void attach_churn(const sim::ChurnTrace& trace,
                    double periods_per_hour) override {
    faults_.attach_churn(trace, periods_per_hour);
  }

  /// Advance sim time by `periods`, paced against the wall clock;
  /// metrics sample each whole period (including t = 0, like the event
  /// backend).
  void run_for(double periods) override;

  /// Measured network behavior so far (per-node trackers aggregated).
  [[nodiscard]] NetStats net_stats() const;
  [[nodiscard]] const sim::TokenStats& token_stats() const noexcept {
    return tokens_;
  }

  /// The UDP port node `pid` is currently bound to (0 while crashed).
  [[nodiscard]] std::uint16_t port_of(sim::ProcessId pid) const;

  /// SIGKILL surrogate for tests and fault drills: the node vanishes
  /// abruptly -- socket closed, timer dead, no Leave gossip -- and the
  /// peers' probe timeouts absorb it as churn.
  void kill_node(sim::ProcessId pid);

  /// Weave an external fd into the poll loop: `on_readable` runs (and
  /// must drain the fd) whenever it is readable during run_for. This is
  /// how a real service (examples/persistent_store) answers client
  /// requests while the protocol gossips underneath.
  void watch_fd(int fd, std::function<void()> on_readable);

 private:
  using Clock = std::chrono::steady_clock;

  struct ProbeContext {
    core::ProbeReplies replies;
    std::size_t remaining = 0;
    std::function<void(const core::ProbeReplies&)> done;
  };
  struct PendingProbe {
    std::shared_ptr<ProbeContext> ctx;
    Clock::time_point sent_at;
  };
  struct Node {
    UdpSocket socket;
    std::uint16_t home_port = 0;  // preferred rebind port after recovery
    std::uint64_t next_seq = 1;
    double period = 1.0;  // in sim periods (drift factor applied)
    std::uint64_t timer_epoch = 0;
    std::uint64_t incarnation = 0;  // bumped per rejoin; stale acks no-op
    bool active = true;             // period timer armed (false mid-join)
    SequenceTracker tracker;
    std::unordered_map<std::uint64_t, PendingProbe> pending;
  };
  struct WatchedFd {
    int fd = -1;
    std::function<void()> on_readable;
  };

  [[nodiscard]] double sim_of(Clock::time_point wall) const;
  [[nodiscard]] Clock::time_point wall_of(double sim_time) const;

  void run_until(double t_end);
  void advance_to(double t_end);
  void poll_and_drain(Clock::time_point deadline);
  void drain_node(sim::ProcessId pid);
  void handle_packet(sim::ProcessId pid, const Packet& packet,
                     const sockaddr_in& from);

  bool emulated_drop();
  /// Stamp sender/seq and send `packet` from node `from` to `dest`.
  /// False when the datagram did not reach the kernel (emulated drop or
  /// send error) -- callers that track tokens count the drop.
  bool send_packet(sim::ProcessId from, const sockaddr_in& dest,
                   Packet packet);

  void arm_timer(sim::ProcessId pid);
  void on_tick(sim::ProcessId pid, std::uint64_t epoch);
  void run_action(sim::ProcessId pid, const core::Action& action);
  void probe_all(sim::ProcessId pid, std::size_t count,
                 std::function<void(const core::ProbeReplies&)> done);
  void resolve_probe(const std::shared_ptr<ProbeContext>& ctx,
                     std::optional<std::size_t> state);
  void route_token(sim::ProcessId pid, std::size_t token_state,
                   std::size_t to_state);

  // fault_plan::Scheduler hooks: what a crash, a revival, and a churn
  // departure mean for a node's socket and timer.
  void on_crashed(sim::ProcessId pid);
  void on_recovered(sim::ProcessId pid);
  void send_leaves(sim::ProcessId pid);
  void begin_join(sim::ProcessId pid, unsigned tries_left);
  void record_rtt(Clock::time_point sent_at);

  core::ProtocolStateMachine machine_;
  NetSimOptions options_;
  sim::EventQueue queue_;  // sim-time events, paced by the wall clock
  sim::Rng rng_;
  sim::Group group_;
  sim::MetricsCollector metrics_;
  std::vector<Node> nodes_;
  std::vector<sockaddr_in> addr_;  // current endpoint per node
  std::vector<WatchedFd> watched_;
  sim::TokenStats tokens_;
  NetStats stats_;  // tracker-independent counters (see net_stats())
  sim::fault_plan::Scheduler faults_;
  std::uint64_t next_probe_id_ = 1;
  double next_sample_ = 0.0;
  Clock::time_point anchor_wall_;  // wall <-> sim mapping, reset per run
  double anchor_sim_ = 0.0;
};

}  // namespace deproto::net
