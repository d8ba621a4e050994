#include "sim/event_sim.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace deproto::sim {

EventSimulator::EventSimulator(std::size_t n,
                               core::ProtocolStateMachine machine,
                               std::uint64_t seed, EventSimOptions options)
    : machine_(std::move(machine)),
      options_(options),
      rng_(seed),
      group_(n, machine_.num_states()),
      network_(queue_, rng_, options.network),
      metrics_(group_.num_states()),
      faults_(queue_, rng_, group_,
              {.crashed = [this](ProcessId pid) { ++timer_epoch_[pid]; },
               .recovered = [this](ProcessId pid) { arm_timer(pid); }}),
      period_of_(n),
      timer_epoch_(n) {
  if (!(options_.clock_drift >= 0.0 && options_.clock_drift < 0.5)) {
    throw std::invalid_argument("EventSimulator: bad clock drift");
  }
  for (ProcessId pid = 0; pid < n; ++pid) {
    period_of_[pid] =
        rng_.uniform(1.0 - options_.clock_drift, 1.0 + options_.clock_drift);
    // Arbitrary phase: the first tick falls anywhere in the first period.
    queue_.schedule(rng_.uniform01() * period_of_[pid],
                    [this, pid] { on_tick(pid, 0); });
  }
}

void EventSimulator::arm_timer(ProcessId pid) {
  const std::uint64_t epoch = timer_epoch_[pid];
  queue_.schedule_in(period_of_[pid],
                     [this, pid, epoch] { on_tick(pid, epoch); });
}

void EventSimulator::on_tick(ProcessId pid, std::uint64_t epoch) {
  // Stale timers (armed before a crash) die here, even if the process has
  // since recovered (recovery armed a fresh-epoch timer).
  if (epoch != timer_epoch_[pid] || !group_.alive(pid)) return;
  for (std::size_t idx : machine_.actions_of(group_.state_of(pid))) {
    run_action(pid, machine_.actions()[idx]);
  }
  arm_timer(pid);
}

void EventSimulator::route_token(std::size_t token_state,
                                 std::size_t to_state) {
  if (options_.tokens.mode == TokenRouting::Mode::RandomWalkTtl) {
    route_token_walk(token_state, to_state, options_.tokens.ttl);
    return;
  }
  if (group_.count(token_state) == 0) return;  // dropped
  const ProcessId receiver = group_.random_member(token_state, rng_);
  network_.send([this, receiver, token_state, to_state] {
    if (group_.live_state(receiver) == token_state) {
      group_.transition(receiver, to_state);
    }
  });
}

void EventSimulator::route_token_walk(std::size_t token_state,
                                      std::size_t to_state,
                                      unsigned ttl_left) {
  if (ttl_left == 0) return;  // expired
  const auto target = static_cast<ProcessId>(rng_.uniform_int(group_.size()));
  network_.send([this, target, token_state, to_state, ttl_left] {
    if (group_.live_state(target) == token_state) {
      group_.transition(target, to_state);
      return;
    }
    route_token_walk(token_state, to_state, ttl_left - 1);
  });
}

void EventSimulator::run_action(ProcessId pid, const core::Action& action) {
  const core::ActionLayout l = core::layout_of(action);
  if (l.mover == core::Mover::Contacts) {
    for (std::size_t k = 0; k < l.probes; ++k) {
      const ProcessId target = group_.random_target(pid, rng_);
      network_.send([this, target, from = l.from, to = l.to,
                     coin = l.coin_bias] {
        if (group_.live_state(target) == from && rng_.bernoulli(coin)) {
          group_.transition(target, to);
        }
      });
    }
    return;
  }
  if (l.judge == core::Judge::None) {  // Flipping: the coin alone decides
    if (rng_.bernoulli(l.coin_bias)) group_.transition(pid, l.to);
    return;
  }
  // A probing action: ask, then decide once every reply is in.
  if (l.probes == 0) {
    decide(pid, action, {});
    return;
  }
  std::uint32_t w = 0;
  if (free_waits_.empty()) {
    w = static_cast<std::uint32_t>(waits_.size());
    waits_.emplace_back();
  } else {
    w = free_waits_.back();
    free_waits_.pop_back();
  }
  ProbeWait& wait = waits_[w];
  wait.pid = pid;
  wait.action = &action;
  wait.expected = l.probes;
  wait.replies.clear();
  for (std::size_t k = 0; k < l.probes; ++k) {
    const ProcessId target = group_.random_target(pid, rng_);
    network_.send([this, w, target] { on_probe(w, target); },
                  [this, w] { on_reply(w, std::nullopt); });
  }
}

void EventSimulator::on_probe(std::uint32_t w, ProcessId target) {
  // The reply carries the target's state at response time; a crashed
  // target never answers, which reads as a lost reply.
  const std::optional<std::size_t> remote = group_.live_state(target);
  if (!remote) {
    on_reply(w, std::nullopt);
    return;
  }
  network_.send([this, w, remote] { on_reply(w, remote); },
                [this, w] { on_reply(w, std::nullopt); });
}

void EventSimulator::on_reply(std::uint32_t w,
                              std::optional<std::size_t> state) {
  ProbeWait& wait = waits_[w];
  wait.replies.push_back(state);
  if (wait.replies.size() < wait.expected) return;
  // decide() only sends messages, so `wait` stays put until it is freed.
  decide(wait.pid, *wait.action, wait.replies);
  free_waits_.push_back(w);
}

void EventSimulator::decide(
    ProcessId pid, const core::Action& action,
    std::span<const std::optional<std::size_t>> replies) {
  const std::optional<std::size_t> self = group_.live_state(pid);
  if (!core::probe_rule(action, self, replies).fires) return;
  const core::ActionLayout l = core::layout_of(action);
  if (!rng_.bernoulli(l.coin_bias)) return;
  if (l.mover == core::Mover::Token) {
    route_token(l.from, l.to);
  } else {
    group_.transition(pid, l.to);
  }
}

void EventSimulator::run_until(double t_end) {
  while (next_sample_ <= t_end) {
    queue_.run_until(next_sample_);
    metrics_.begin_period(queue_.now());
    metrics_.end_period(group_);
    next_sample_ += 1.0;
  }
  queue_.run_until(t_end);
}

void EventSimulator::run_for(double periods) {
  run_until(queue_.now() + periods);
}

}  // namespace deproto::sim
