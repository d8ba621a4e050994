#include "sim/async_runtime.hpp"

#include <stdexcept>
#include <utility>

namespace deproto::sim {

AsyncRuntime::AsyncRuntime(std::size_t n, core::ProtocolStateMachine machine,
                           std::uint64_t seed, double clock_drift,
                           TokenRouting tokens)
    : machine_(std::move(machine)),
      rng_(seed),
      group_(n, machine_.num_states()),
      metrics_(group_.num_states()),
      faults_(queue_, rng_, group_,
              {.crashed =
                   [this](ProcessId pid) {
                     ++timer_epoch_[pid];
                     on_crashed(pid);
                   },
               .recovered = [this](ProcessId pid) { on_recovered(pid); },
               .departing = [this](ProcessId pid) { on_departing(pid); }}),
      routing_(tokens),
      period_of_(n),
      timer_epoch_(n) {
  if (!(clock_drift >= 0.0 && clock_drift < 0.5)) {
    throw std::invalid_argument("async runtime: bad clock drift");
  }
  for (const core::Action& action : machine_.actions()) {
    layouts_.push_back(core::layout_of(action));
  }
  for (ProcessId pid = 0; pid < n; ++pid) {
    period_of_[pid] = rng_.uniform(1.0 - clock_drift, 1.0 + clock_drift);
    start_timer(pid);
  }
}

void AsyncRuntime::arm_timer(ProcessId pid) {
  queue_.schedule_in(period_of_[pid], [this, pid, epoch = timer_epoch_[pid]] {
    on_tick(pid, epoch);
  });
}

void AsyncRuntime::start_timer(ProcessId pid) {
  queue_.schedule_in(rng_.uniform01() * period_of_[pid],
                     [this, pid, epoch = timer_epoch_[pid]] {
                       on_tick(pid, epoch);
                     });
}

void AsyncRuntime::on_tick(ProcessId pid, std::uint64_t epoch) {
  // Stale timers (armed before a crash) die here, even if the process has
  // since recovered (recovery armed a fresh-epoch timer).
  if (epoch != timer_epoch_[pid] || !group_.alive(pid)) return;
  for (std::size_t idx : machine_.actions_of(group_.state_of(pid))) {
    run_action(pid, idx);
  }
  arm_timer(pid);
}

void AsyncRuntime::run_action(ProcessId pid, std::size_t action) {
  const core::ActionLayout& l = layouts_[action];
  if (l.mover == core::Mover::Contacts) {
    for (std::size_t k = 0; k < l.probes; ++k) {
      send_push(pid, group_.random_target(pid, rng_), l);
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
  waits_[w].pid = pid;
  waits_[w].action = action;
  waits_[w].replies.clear();
  for (std::size_t k = 0; k < l.probes; ++k) {
    send_probe(pid, group_.random_target(pid, rng_), w);
  }
}

void AsyncRuntime::reply_arrived(std::uint32_t w,
                                 std::optional<std::size_t> state) {
  ProbeWait& wait = waits_[w];
  wait.replies.push_back(state);
  if (wait.replies.size() < layouts_[wait.action].probes) return;
  // decide() only sends messages, so `wait` stays put until it is freed.
  decide(wait.pid, wait.action, wait.replies);
  free_waits_.push_back(w);
}

void AsyncRuntime::decide(
    ProcessId pid, std::size_t action,
    std::span<const std::optional<std::size_t>> replies) {
  const core::ProbeRule rule = core::probe_rule(
      machine_.actions()[action], group_.live_state(pid), replies);
  const core::ActionLayout& l = layouts_[action];
  if (!rule.fires || !rng_.bernoulli(l.coin_bias)) return;
  if (l.mover == core::Mover::Token) {
    route_token(pid, l.from, l.to);
  } else {
    group_.transition(pid, l.to);
  }
}

void AsyncRuntime::push_arrived(ProcessId at, std::size_t from,
                                std::size_t to, double coin) {
  if (group_.live_state(at) == from && rng_.bernoulli(coin)) {
    group_.transition(at, to);
  }
}

void AsyncRuntime::route_token(ProcessId from, std::size_t token_state,
                               std::size_t to_state) {
  ++tokens_.generated;
  // Directory: hand the token to a member of the token state ("if no
  // processes are in state x, drop it"). Random walk: routing_.ttl hops.
  const bool directory = routing_.mode == TokenRouting::Mode::Directory;
  if (directory ? group_.count(token_state) == 0 : routing_.ttl == 0) {
    ++tokens_.dropped;
    return;
  }
  const ProcessId to =
      directory ? group_.random_member(token_state, rng_)
                : static_cast<ProcessId>(rng_.uniform_int(group_.size()));
  if (!send_token(from, to, token_state, to_state,
                  directory ? 0 : routing_.ttl - 1)) {
    ++tokens_.dropped;
  }
}

void AsyncRuntime::token_arrived(ProcessId at, std::size_t token_state,
                                 std::size_t to_state, unsigned hops_left) {
  if (group_.live_state(at) == token_state) {
    group_.transition(at, to_state);
    ++tokens_.delivered;
    return;
  }
  if (hops_left == 0) {  // a directory hand-off missed, or a walk expired
    ++tokens_.dropped;
    return;
  }
  const auto next = static_cast<ProcessId>(rng_.uniform_int(group_.size()));
  if (!send_token(at, next, token_state, to_state, hops_left - 1)) {
    ++tokens_.dropped;
  }
}

void AsyncRuntime::run_until(double t_end) {
  while (next_sample_ <= t_end) {
    advance_to(next_sample_);
    metrics_.begin_period(queue_.now());
    metrics_.end_period(group_);
    next_sample_ += 1.0;
  }
  advance_to(t_end);
}

void AsyncRuntime::run_for(double periods) { run_until(now() + periods); }

}  // namespace deproto::sim
