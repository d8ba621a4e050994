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
// same oracle the event backend uses. The timers, the action interpreter
// (core::layout_of, core::probe_rule), token routing, the fault surface
// and the metrics are sim::AsyncRuntime's, shared with the event backend,
// so the loopback equivalence suite can pin net steady states against
// sync/event/mean-field. This file is the carrier only: sockets, the
// packet codec, wall-clock pacing, probe timeouts, the join/leave
// handshake and the measured NetStats.

#include <netinet/in.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/state_machine.hpp"
#include "net/packet.hpp"
#include "net/socket.hpp"
#include "sim/async_runtime.hpp"
#include "sim/runtime.hpp"

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

class NetSimulator final : public sim::AsyncRuntime {
 public:
  /// Socket-per-node puts a hard ceiling on N (fd budget and poll cost);
  /// gigascale runs belong on the count backend.
  static constexpr std::size_t kMaxNodes = 1024;

  /// Binds n loopback sockets immediately. Throws std::invalid_argument
  /// for n outside [2, kMaxNodes] or bad options; std::system_error when
  /// the kernel refuses a socket.
  NetSimulator(std::size_t n, core::ProtocolStateMachine machine,
               std::uint64_t seed, NetSimOptions options = {});

  /// Advance sim time by `periods`, paced against the wall clock;
  /// metrics sample each whole period (including t = 0, like the event
  /// backend).
  void run_for(double periods) override;

  /// Measured network behavior so far (per-node trackers aggregated).
  [[nodiscard]] NetStats net_stats() const;

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

  struct PendingProbe {
    std::uint32_t wait = 0;  // the runtime's probe-wait record
    Clock::time_point sent_at;
  };
  struct Node {
    UdpSocket socket;
    std::uint16_t home_port = 0;  // preferred rebind port after recovery
    std::uint64_t next_seq = 1;
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

  void advance_to(double t_end) override;
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

  // The carrier: probes, pushes and tokens as datagrams.
  void send_push(sim::ProcessId from, sim::ProcessId to,
                 const core::ActionLayout& layout) override;
  void send_probe(sim::ProcessId from, sim::ProcessId to,
                  std::uint32_t wait) override;
  bool send_token(sim::ProcessId from, sim::ProcessId to,
                  std::size_t token_state, std::size_t to_state,
                  unsigned hops_left) override;

  // What a crash, a revival, and a churn departure mean for a node's
  // socket: it closes; it rebinds and handshakes before its timer starts
  // again; it gossips a Leave first.
  void on_crashed(sim::ProcessId pid) override;
  void on_recovered(sim::ProcessId pid) override;
  void on_departing(sim::ProcessId pid) override;
  void begin_join(sim::ProcessId pid, unsigned tries_left);
  void activate(sim::ProcessId pid);
  void record_rtt(Clock::time_point sent_at);

  NetSimOptions options_;
  std::vector<Node> nodes_;
  std::vector<sockaddr_in> addr_;  // current endpoint per node
  std::vector<WatchedFd> watched_;
  NetStats stats_;  // tracker-independent counters (see net_stats())
  std::uint64_t next_probe_id_ = 1;
  Clock::time_point anchor_wall_;  // wall <-> sim mapping, reset per run
  double anchor_sim_ = 0.0;
};

}  // namespace deproto::net
