#include "net/net_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/action.hpp"
#include "sim/fault_plan.hpp"

namespace deproto::net {

namespace {

/// Peers a graceful Leave is gossiped to, and a Join handshake is offered
/// to, per attempt. Small: the handshake only needs one live responder.
constexpr unsigned kHandshakeFanout = 3;
/// Join attempts before a recovering node gives up on finding a live
/// peer and activates alone (everyone else may be crashed).
constexpr unsigned kJoinRetries = 3;
/// Poll slice cap so external watch_fd work and wall/sim drift stay
/// bounded even when the next sim event is far away.
constexpr int kMaxPollMs = 100;

}  // namespace

NetSimulator::NetSimulator(std::size_t n,
                           core::ProtocolStateMachine machine,
                           std::uint64_t seed, NetSimOptions options)
    : machine_(std::move(machine)),
      options_(options),
      rng_(seed),
      group_(n, machine_.num_states()),
      metrics_(machine_.num_states()),
      faults_(queue_, rng_, group_,
              {.crashed = [this](sim::ProcessId pid) { on_crashed(pid); },
               .recovered = [this](sim::ProcessId pid) { on_recovered(pid); },
               .departing = [this](sim::ProcessId pid) { send_leaves(pid); }}) {
  if (n < 2 || n > kMaxNodes) {
    throw std::invalid_argument(
        "NetSimulator: n must lie in [2, " + std::to_string(kMaxNodes) +
        "] (socket per node; larger populations belong on the count "
        "backend)");
  }
  if (!(options_.period_ms > 0.0)) {
    throw std::invalid_argument("NetSimulator: period_ms must be positive");
  }
  if (!(options_.probe_timeout > 0.0)) {
    throw std::invalid_argument(
        "NetSimulator: probe_timeout must be positive");
  }
  if (!(options_.message_loss >= 0.0 && options_.message_loss < 1.0)) {
    throw std::invalid_argument(
        "NetSimulator: message_loss must lie in [0, 1)");
  }
  if (!(options_.clock_drift >= 0.0 && options_.clock_drift < 0.5)) {
    throw std::invalid_argument("NetSimulator: bad clock drift");
  }
  nodes_.resize(n);
  addr_.resize(n);
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    Node& node = nodes_[pid];
    node.socket = UdpSocket::bind_loopback();
    node.home_port = node.socket.port();
    addr_[pid] = loopback_endpoint(node.home_port);
    node.period =
        rng_.uniform(1.0 - options_.clock_drift, 1.0 + options_.clock_drift);
    // Arbitrary phase: the first tick falls anywhere in the first period.
    queue_.schedule(rng_.uniform01() * node.period,
                    [this, pid] { on_tick(pid, 0); });
  }
}

// ---------------------------------------------------------------------
// Wall clock <-> sim time. One protocol period == period_ms of real
// time; the anchors are reset at every run_until so sim time does not
// elapse between runs.

double NetSimulator::sim_of(Clock::time_point wall) const {
  const double ms = std::chrono::duration<double, std::milli>(
                        wall - anchor_wall_)
                        .count();
  return anchor_sim_ + ms / options_.period_ms;
}

NetSimulator::Clock::time_point NetSimulator::wall_of(
    double sim_time) const {
  return anchor_wall_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                (sim_time - anchor_sim_) *
                                options_.period_ms));
}

void NetSimulator::run_for(double periods) { run_until(now() + periods); }

void NetSimulator::run_until(double t_end) {
  anchor_wall_ = Clock::now();
  anchor_sim_ = queue_.now();
  while (next_sample_ <= t_end) {
    advance_to(next_sample_);
    metrics_.begin_period(queue_.now());
    metrics_.end_period(group_);
    next_sample_ += 1.0;
  }
  advance_to(t_end);
}

void NetSimulator::advance_to(double t_end) {
  for (;;) {
    // Run everything the wall clock has made due, then either finish or
    // sleep in poll() until the next sim event (or a datagram) is ready.
    double reach = std::min(sim_of(Clock::now()), t_end);
    // Catch up one event batch at a time with a non-blocking drain in
    // between: after a scheduler stall, several periods of probes and
    // their timeouts can all be due at once while the probe replies sit
    // unread in the kernel buffers. Expiring those probes before reading
    // the buffers would turn a CPU hiccup into fake total loss.
    while (queue_.next_time() <= reach) {
      queue_.run_until(queue_.next_time());
      poll_and_drain(Clock::now());
      reach = std::min(sim_of(Clock::now()), t_end);
    }
    if (reach > queue_.now()) queue_.run_until(reach);
    if (reach >= t_end) {
      queue_.run_until(t_end);
      return;
    }
    const double next_t = std::min(queue_.next_time(), t_end);
    poll_and_drain(wall_of(next_t));
  }
}

void NetSimulator::poll_and_drain(Clock::time_point deadline) {
  const auto now_w = Clock::now();
  int timeout_ms = 0;
  if (deadline > now_w) {
    const double ms =
        std::chrono::duration<double, std::milli>(deadline - now_w).count();
    timeout_ms = std::min(kMaxPollMs, static_cast<int>(ms) + 1);
  }
  std::vector<pollfd> fds;
  std::vector<sim::ProcessId> owners;
  fds.reserve(nodes_.size() + watched_.size());
  for (sim::ProcessId pid = 0; pid < nodes_.size(); ++pid) {
    if (!nodes_[pid].socket.open()) continue;
    fds.push_back(pollfd{nodes_[pid].socket.fd(), POLLIN, 0});
    owners.push_back(pid);
  }
  const std::size_t watched_base = fds.size();
  for (const WatchedFd& w : watched_) {
    fds.push_back(pollfd{w.fd, POLLIN, 0});
  }
  if (fds.empty()) {
    // Everyone is crashed and nothing external is watched: just let the
    // wall clock reach the deadline.
    if (timeout_ms > 0) {
      std::vector<pollfd> none;
      poll_sockets(none, timeout_ms);
    }
    return;
  }
  if (poll_sockets(fds, timeout_ms) <= 0) return;
  for (std::size_t i = 0; i < watched_base; ++i) {
    if ((fds[i].revents & POLLIN) != 0) drain_node(owners[i]);
  }
  for (std::size_t i = watched_base; i < fds.size(); ++i) {
    if ((fds[i].revents & POLLIN) != 0) {
      watched_[i - watched_base].on_readable();
    }
  }
}

void NetSimulator::drain_node(sim::ProcessId pid) {
  char buf[kPacketSize * 2];
  for (;;) {
    Node& node = nodes_[pid];
    if (!node.socket.open()) return;  // crashed while draining
    sockaddr_in from{};
    const long got = node.socket.recv_from(buf, sizeof(buf), &from);
    if (got < 0) return;
    ++stats_.datagrams_received;
    Packet packet;
    const DecodeStatus status =
        decode_packet(buf, static_cast<std::size_t>(got), &packet);
    if (status != DecodeStatus::Ok) {
      ++stats_.decode_errors;
      continue;  // fail closed per datagram; boundaries are intact
    }
    if (node.tracker.observe(packet.sender, packet.seq) ==
        SequenceTracker::Arrival::Duplicate) {
      continue;  // counted by the tracker; never processed twice
    }
    handle_packet(pid, packet, from);
  }
}

void NetSimulator::handle_packet(sim::ProcessId pid, const Packet& packet,
                                 const sockaddr_in& from) {
  Node& node = nodes_[pid];
  switch (packet.type) {
    case PacketType::Probe: {
      if (!group_.alive(pid)) return;
      Packet reply;
      reply.type = PacketType::ProbeReply;
      reply.state = static_cast<std::uint8_t>(group_.state_of(pid));
      reply.tag = packet.tag;
      send_packet(pid, from, reply);
      return;
    }
    case PacketType::ProbeReply: {
      const auto it = node.pending.find(packet.tag);
      if (it == node.pending.end()) return;  // timed out or stale ack
      record_rtt(it->second.sent_at);
      const std::shared_ptr<ProbeContext> ctx = it->second.ctx;
      node.pending.erase(it);
      resolve_probe(ctx, static_cast<std::size_t>(packet.state));
      return;
    }
    case PacketType::Push: {
      if (group_.alive(pid) && group_.state_of(pid) == packet.arg0 &&
          rng_.bernoulli(q32_to_coin(packet.arg2))) {
        group_.transition(pid, packet.arg1);
      }
      return;
    }
    case PacketType::Token: {
      if (group_.alive(pid) && group_.state_of(pid) == packet.arg0) {
        group_.transition(pid, packet.arg1);
        ++tokens_.delivered;
        return;
      }
      if (packet.arg2 > 0) {
        // Random-walk routing: forward with one hop fewer.
        Packet forward = packet;
        forward.arg2 = packet.arg2 - 1;
        const auto target =
            static_cast<sim::ProcessId>(rng_.uniform_int(group_.size()));
        if (!send_packet(pid, addr_[target], forward)) ++tokens_.dropped;
        return;
      }
      ++tokens_.dropped;
      return;
    }
    case PacketType::Join: {
      if (!group_.alive(pid)) return;
      ++stats_.joins;
      Packet ack;
      ack.type = PacketType::JoinAck;
      ack.tag = packet.tag;
      send_packet(pid, from, ack);
      return;
    }
    case PacketType::JoinAck: {
      if (!group_.alive(pid) || node.active ||
          packet.tag != node.incarnation) {
        return;  // stale ack from an earlier incarnation
      }
      node.active = true;
      const std::uint64_t epoch = node.timer_epoch;
      queue_.schedule_in(rng_.uniform01() * node.period,
                         [this, pid, epoch] { on_tick(pid, epoch); });
      return;
    }
    case PacketType::Leave: {
      ++stats_.leaves;
      return;
    }
  }
}

bool NetSimulator::emulated_drop() {
  if (options_.message_loss > 0.0 && rng_.bernoulli(options_.message_loss)) {
    ++stats_.emulated_drops;
    return true;
  }
  return false;
}

bool NetSimulator::send_packet(sim::ProcessId from, const sockaddr_in& dest,
                               Packet packet) {
  Node& node = nodes_[from];
  if (!node.socket.open()) return false;
  if (emulated_drop()) return false;
  packet.sender = from;
  packet.seq = node.next_seq++;
  const std::string bytes = encode_packet(packet);
  if (!node.socket.send_to(dest, bytes.data(), bytes.size())) return false;
  ++stats_.datagrams_sent;
  return true;
}

void NetSimulator::record_rtt(Clock::time_point sent_at) {
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              sent_at)
                        .count();
  if (stats_.rtt_samples == 0 || ms < stats_.rtt_ms_min) {
    stats_.rtt_ms_min = ms;
  }
  if (ms > stats_.rtt_ms_max) stats_.rtt_ms_max = ms;
  stats_.rtt_ms_sum += ms;
  ++stats_.rtt_samples;
}

// ---------------------------------------------------------------------
// Protocol execution: one timer per node, the event backend's probe
// rules, with probes as real request/response datagrams.

void NetSimulator::arm_timer(sim::ProcessId pid) {
  const std::uint64_t epoch = nodes_[pid].timer_epoch;
  queue_.schedule_in(nodes_[pid].period,
                     [this, pid, epoch] { on_tick(pid, epoch); });
}

void NetSimulator::on_tick(sim::ProcessId pid, std::uint64_t epoch) {
  if (epoch != nodes_[pid].timer_epoch || !group_.alive(pid)) return;
  for (std::size_t idx : machine_.actions_of(group_.state_of(pid))) {
    run_action(pid, machine_.actions()[idx]);
  }
  arm_timer(pid);
}

void NetSimulator::probe_all(
    sim::ProcessId pid, std::size_t count,
    std::function<void(const core::ProbeReplies&)> done) {
  auto ctx = std::make_shared<ProbeContext>();
  ctx->remaining = count;
  ctx->done = std::move(done);
  ctx->replies.reserve(count);
  if (count == 0) {
    ctx->done({});
    return;
  }
  Node& node = nodes_[pid];
  for (std::size_t k = 0; k < count; ++k) {
    const sim::ProcessId target = group_.random_target(pid, rng_);
    const std::uint64_t probe_id = next_probe_id_++;
    ++stats_.probes_sent;
    node.pending.emplace(probe_id, PendingProbe{ctx, Clock::now()});
    Packet probe;
    probe.type = PacketType::Probe;
    probe.state = static_cast<std::uint8_t>(group_.state_of(pid));
    probe.tag = probe_id;
    send_packet(pid, addr_[target], probe);
    // The loss surrogate: if no reply claimed this probe id by the
    // deadline, it resolves as lost -- whether the request leg, the
    // reply leg, a crashed target, or an emulated drop ate it.
    queue_.schedule_in(options_.probe_timeout, [this, pid, probe_id] {
      Node& owner = nodes_[pid];
      const auto it = owner.pending.find(probe_id);
      if (it == owner.pending.end()) return;
      const std::shared_ptr<ProbeContext> pending_ctx = it->second.ctx;
      owner.pending.erase(it);
      ++stats_.probe_timeouts;
      resolve_probe(pending_ctx, std::nullopt);
    });
  }
}

void NetSimulator::resolve_probe(const std::shared_ptr<ProbeContext>& ctx,
                                 std::optional<std::size_t> state) {
  ctx->replies.push_back(state);
  if (--ctx->remaining == 0) ctx->done(ctx->replies);
}

void NetSimulator::route_token(sim::ProcessId pid, std::size_t token_state,
                               std::size_t to_state) {
  ++tokens_.generated;
  Packet token;
  token.type = PacketType::Token;
  token.arg0 = static_cast<std::uint32_t>(token_state);
  token.arg1 = static_cast<std::uint32_t>(to_state);
  if (options_.tokens.mode == sim::TokenRouting::Mode::Directory) {
    if (group_.count(token_state) == 0) {
      ++tokens_.dropped;  // "If no processes are in state x, drop it"
      return;
    }
    const sim::ProcessId receiver =
        group_.random_member(token_state, rng_);
    token.arg2 = 0;  // directory handoff: no forwarding
    if (!send_packet(pid, addr_[receiver], token)) ++tokens_.dropped;
    return;
  }
  if (options_.tokens.ttl == 0) {
    ++tokens_.dropped;
    return;
  }
  const auto target =
      static_cast<sim::ProcessId>(rng_.uniform_int(group_.size()));
  token.arg2 = options_.tokens.ttl - 1;  // hops left after this one
  if (!send_packet(pid, addr_[target], token)) ++tokens_.dropped;
}

void NetSimulator::run_action(sim::ProcessId pid, const core::Action& action) {
  const core::ActionLayout l = core::layout_of(action);
  if (l.mover == core::Mover::Contacts) {
    for (std::size_t k = 0; k < l.probes; ++k) {
      const sim::ProcessId target = group_.random_target(pid, rng_);
      Packet push;
      push.type = PacketType::Push;
      push.state = static_cast<std::uint8_t>(group_.state_of(pid));
      push.arg0 = static_cast<std::uint32_t>(l.from);
      push.arg1 = static_cast<std::uint32_t>(l.to);
      push.arg2 = coin_to_q32(l.coin_bias);
      send_packet(pid, addr_[target], push);
    }
    return;
  }
  if (l.judge == core::Judge::None) {  // Flipping: the coin alone decides
    if (rng_.bernoulli(l.coin_bias)) group_.transition(pid, l.to);
    return;
  }
  // A probing action: ask, then decide once every reply is in.
  auto decide = [this, pid, &action](const core::ProbeReplies& r) {
    const std::optional<std::size_t> self = group_.live_state(pid);
    if (!core::probe_rule(action, self, r).fires) return;
    const core::ActionLayout l = core::layout_of(action);
    if (!rng_.bernoulli(l.coin_bias)) return;
    if (l.mover == core::Mover::Token) {
      route_token(pid, l.from, l.to);
    } else {
      group_.transition(pid, l.to);
    }
  };
  probe_all(pid, l.probes, std::move(decide));
}

// ---------------------------------------------------------------------
// Fault surface: crashes close sockets, recoveries rebind and handshake.

void NetSimulator::on_crashed(sim::ProcessId pid) {
  // The port goes silent mid-flight: in-flight probes to it time out.
  Node& node = nodes_[pid];
  ++node.timer_epoch;
  node.active = false;
  node.socket.close();
}

void NetSimulator::send_leaves(sim::ProcessId pid) {
  // Churn departures announce themselves before going dark; the Leave is
  // informational (peers already absorb silent exits via timeouts).
  for (unsigned k = 0; k < kHandshakeFanout; ++k) {
    const sim::ProcessId target = group_.random_target(pid, rng_);
    Packet leave;
    leave.type = PacketType::Leave;
    send_packet(pid, addr_[target], leave);
  }
}

void NetSimulator::on_recovered(sim::ProcessId pid) {
  Node& node = nodes_[pid];
  // Rebind the home port if it is still free (peers cache endpoints);
  // otherwise take a fresh ephemeral port and republish the address.
  try {
    node.socket = UdpSocket::bind_loopback(node.home_port);
  } catch (const std::system_error&) {
    node.socket = UdpSocket::bind_loopback();
  }
  addr_[pid] = loopback_endpoint(node.socket.port());
  ++node.timer_epoch;
  ++node.incarnation;
  node.active = false;
  begin_join(pid, kJoinRetries);
}

void NetSimulator::begin_join(sim::ProcessId pid, unsigned tries_left) {
  Node& node = nodes_[pid];
  if (!group_.alive(pid) || node.active) return;
  if (tries_left == 0) {
    // No live peer answered (possibly none exists): activate alone, like
    // the first node of a bootstrapping group.
    node.active = true;
    const std::uint64_t epoch = node.timer_epoch;
    queue_.schedule_in(rng_.uniform01() * node.period,
                       [this, pid, epoch] { on_tick(pid, epoch); });
    return;
  }
  Packet join;
  join.type = PacketType::Join;
  join.tag = node.incarnation;
  for (unsigned k = 0; k < kHandshakeFanout; ++k) {
    const sim::ProcessId target = group_.random_target(pid, rng_);
    send_packet(pid, addr_[target], join);
  }
  const std::uint64_t incarnation = node.incarnation;
  queue_.schedule_in(options_.probe_timeout,
                     [this, pid, incarnation, tries_left] {
                       Node& joining = nodes_[pid];
                       if (joining.active ||
                           joining.incarnation != incarnation) {
                         return;  // acked, or superseded by a newer rejoin
                       }
                       begin_join(pid, tries_left - 1);
                     });
}

NetStats NetSimulator::net_stats() const {
  NetStats stats = stats_;
  for (const Node& node : nodes_) {
    stats.reordered += node.tracker.reordered();
    stats.duplicates += node.tracker.duplicates();
  }
  return stats;
}

std::uint16_t NetSimulator::port_of(sim::ProcessId pid) const {
  return nodes_.at(pid).socket.port();
}

void NetSimulator::kill_node(sim::ProcessId pid) {
  if (pid < group_.size()) faults_.crash(pid);
}

void NetSimulator::watch_fd(int fd, std::function<void()> on_readable) {
  watched_.push_back(WatchedFd{fd, std::move(on_readable)});
}

}  // namespace deproto::net
