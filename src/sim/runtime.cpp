#include "sim/runtime.hpp"

#include <algorithm>

namespace deproto::sim {

MachineExecutor::MachineExecutor(core::ProtocolStateMachine machine,
                                 RuntimeOptions options)
    : machine_(std::move(machine)), options_(options) {
  for (const core::Action& action : machine_.actions()) {
    layouts_.push_back(core::layout_of(action));
  }
}

std::optional<std::size_t> MachineExecutor::probe(const Group& group,
                                                  ProcessId self, Rng& rng) {
  ++probes_total_;
  const ProcessId target = group.random_target(self, rng);
  if (options_.message_loss > 0.0 && rng.bernoulli(options_.message_loss)) {
    return std::nullopt;  // connection attempt failed
  }
  if (options_.simultaneous_updates) {
    if (!snap_alive_[target]) return std::nullopt;
    return snap_state_[target];
  }
  if (!group.alive(target)) return std::nullopt;  // fruitless contact
  return group.state_of(target);
}

void MachineExecutor::route_token(Group& group, Rng& rng,
                                  std::size_t token_state,
                                  std::size_t to_state) {
  ++tokens_.generated;
  if (options_.tokens.mode == TokenRouting::Mode::Directory) {
    if (group.count(token_state) == 0) {
      ++tokens_.dropped;  // "If no processes are in state x, drop the token"
      return;
    }
    const ProcessId receiver = group.random_member(token_state, rng);
    group.transition(receiver, to_state);
    ++tokens_.delivered;
    return;
  }
  // TTL random walk: each hop visits a uniformly random process; the first
  // hop that lands on an alive process in the token state consumes it.
  for (unsigned hop = 0; hop < options_.tokens.ttl; ++hop) {
    const auto target =
        static_cast<ProcessId>(rng.uniform_int(group.size()));
    if (options_.message_loss > 0.0 && rng.bernoulli(options_.message_loss)) {
      ++tokens_.dropped;  // the token message itself was lost
      return;
    }
    if (group.alive(target) && group.state_of(target) == token_state) {
      group.transition(target, to_state);
      ++tokens_.delivered;
      return;
    }
  }
  ++tokens_.dropped;
}

void MachineExecutor::execute_period(Group& group, Rng& rng) {
  // Iterate all processes in a fresh random order each period. A process
  // executes the action list of the state it holds when its turn comes; it
  // stops after its first firing transition (one transition per period --
  // simultaneous firings are O(dt^2) events the mean field ignores).
  const std::size_t n = group.size();
  if (order_.size() != n) {
    order_.resize(n);
    for (ProcessId pid = 0; pid < n; ++pid) order_[pid] = pid;
  }
  std::shuffle(order_.begin(), order_.end(), rng.engine());

  const bool jacobi = options_.simultaneous_updates;
  if (jacobi) {
    snap_state_.resize(n);
    snap_alive_.resize(n);
    for (ProcessId pid = 0; pid < n; ++pid) {
      snap_state_[pid] = static_cast<std::uint8_t>(group.state_of(pid));
      snap_alive_[pid] = group.alive(pid) ? 1 : 0;
    }
  }

  for (ProcessId pid : order_) {
    if (!group.alive(pid)) continue;
    // In Jacobi mode a process acts as its period-start state; if someone
    // already moved it this period, it loses its turn.
    const std::size_t state =
        jacobi ? snap_state_[pid] : group.state_of(pid);
    if (jacobi && group.state_of(pid) != state) continue;

    for (std::size_t action_idx : machine_.actions_of(state)) {
      const core::ActionLayout& l = layouts_[action_idx];
      if (l.mover == core::Mover::Contacts) {
        for (std::size_t k = 0; k < l.probes; ++k) {
          const ProcessId target = group.random_target(pid, rng);
          ++probes_total_;
          if (options_.message_loss > 0.0 &&
              rng.bernoulli(options_.message_loss)) {
            continue;
          }
          if (!group.alive(target)) continue;
          const std::size_t observed =
              jacobi ? snap_state_[target] : group.state_of(target);
          // Live recheck prevents double-converting a target two pushers
          // both saw as convertible in the snapshot.
          if (observed == l.from && group.state_of(target) == l.from &&
              rng.bernoulli(l.coin_bias)) {
            group.transition(target, l.to);
          }
        }
        continue;
      }
      // Flipping, Sampling, Tokenizing and AnyOfSampling: probe in order
      // up to the first decisive reply, then toss the coin.
      const auto reply = [&](std::size_t) { return probe(group, pid, rng); };
      if (!l.judge_in_order(reply) || !rng.bernoulli(l.coin_bias)) continue;
      if (l.mover == core::Mover::Token) {
        // The executor does not transition; the token does the work.
        route_token(group, rng, l.from, l.to);
        continue;
      }
      group.transition(pid, l.to);
      break;
    }
  }
}

}  // namespace deproto::sim
