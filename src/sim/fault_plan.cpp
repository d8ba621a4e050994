#include "sim/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace deproto::sim::fault_plan {

void validate_failure_fraction(double fraction) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("schedule_massive_failure: bad fraction");
  }
}

void validate_crash_recovery(double crash_prob,
                             double mean_downtime_periods) {
  if (!(crash_prob >= 0.0 && crash_prob <= 1.0) ||
      mean_downtime_periods < 0.0) {
    throw std::invalid_argument("set_crash_recovery: bad parameters");
  }
}

void validate_fault_times(double time, double recover_time) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("fault plan: non-finite fault time");
  }
  if (!(recover_time < 0.0) && !std::isfinite(recover_time)) {
    throw std::invalid_argument("fault plan: non-finite recover time");
  }
}

void validate_periods_per_hour(double periods_per_hour) {
  if (!(periods_per_hour > 0.0)) {
    throw std::invalid_argument("attach_churn: bad periods_per_hour");
  }
}

std::size_t failure_victims(double fraction, std::size_t total_alive) {
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(total_alive)));
}

std::vector<ChurnEvent> trace_in_periods(const ChurnTrace& trace,
                                         double periods_per_hour,
                                         double min_time) {
  validate_periods_per_hour(periods_per_hour);
  std::vector<ChurnEvent> events;
  events.reserve(trace.events().size());
  for (ChurnEvent e : trace.events()) {
    e.time_hours =
        std::max(e.time_hours * periods_per_hour, min_time);  // now periods
    events.push_back(e);
  }
  return events;
}

double recovery_delay(Rng& rng, double mean_downtime_periods) {
  return 1.0 + rng.exponential_mean(mean_downtime_periods);
}

std::size_t first_period_at_or_after(double time) {
  if (!(time > 0.0)) return 0;
  return static_cast<std::size_t>(std::ceil(time));
}

Scheduler::Scheduler(EventQueue& queue, Rng& rng, Group& group, Hooks hooks)
    : queue_(queue), rng_(rng), group_(group), hooks_(std::move(hooks)) {}

void Scheduler::crash(ProcessId pid) {
  if (!group_.alive(pid)) return;
  group_.crash(pid);
  hooks_.crashed(pid);
}

void Scheduler::recover(ProcessId pid) {
  if (group_.alive(pid)) return;
  group_.recover(pid, 0);
  hooks_.recovered(pid);
}

void Scheduler::schedule_massive_failure(double time, double fraction) {
  validate_fault_times(time);
  validate_failure_fraction(fraction);
  queue_.schedule(std::max(time, queue_.now()), [this, fraction] {
    const std::size_t victims =
        failure_victims(fraction, group_.total_alive());
    for (ProcessId pid : group_.crash_random_alive(victims, rng_)) {
      hooks_.crashed(pid);
    }
  });
}

void Scheduler::schedule_crash(ProcessId pid, double time,
                               double recover_time) {
  validate_fault_times(time, recover_time);
  if (pid >= group_.size()) return;  // ignored, as in Rounds
  queue_.schedule(std::max(time, queue_.now()), [this, pid] { crash(pid); });
  if (recover_time >= 0.0) {
    queue_.schedule(std::max(recover_time, queue_.now()),
                    [this, pid] { recover(pid); });
  }
}

void Scheduler::set_crash_recovery(double crash_prob,
                                   double mean_downtime_periods) {
  validate_crash_recovery(crash_prob, mean_downtime_periods);
  // Each call starts a fresh tick chain, so reconfiguring (including
  // disarm + re-arm within one period) never stacks chains.
  const std::uint64_t epoch = ++recovery_epoch_;
  crash_prob_ = crash_prob;
  mean_downtime_ = mean_downtime_periods;
  if (crash_prob_ > 0.0) {
    queue_.schedule_in(1.0, [this, epoch] { on_crash_recovery_tick(epoch); });
  }
}

void Scheduler::on_crash_recovery_tick(std::uint64_t epoch) {
  if (epoch != recovery_epoch_) return;  // reconfigured; chain abandoned
  const std::size_t crashes =
      rng_.binomial(group_.total_alive(), crash_prob_);
  for (ProcessId pid : group_.crash_random_alive(crashes, rng_)) {
    hooks_.crashed(pid);
    if (mean_downtime_ > 0.0) {
      // Recoveries outlive a later disarm, as they do in Rounds.
      queue_.schedule_in(recovery_delay(rng_, mean_downtime_),
                         [this, pid] { recover(pid); });
    }
  }
  queue_.schedule_in(1.0, [this, epoch] { on_crash_recovery_tick(epoch); });
}

void Scheduler::attach_churn(const ChurnTrace& trace,
                             double periods_per_hour) {
  // Attaching replaces any earlier trace, as in Rounds.
  const std::uint64_t epoch = ++churn_epoch_;
  for (const ChurnEvent& e :
       trace_in_periods(trace, periods_per_hour, queue_.now())) {
    if (e.host >= group_.size()) continue;
    const ProcessId pid = e.host;
    // e.time_hours is already in periods.
    queue_.schedule(e.time_hours, [this, pid, epoch, up = e.up] {
      if (epoch != churn_epoch_) return;
      if (up) {
        recover(pid);
      } else if (group_.alive(pid)) {
        if (hooks_.departing) hooks_.departing(pid);
        crash(pid);
      }
    });
  }
}

Rounds::Rounds(Rng& rng, std::size_t n, Hooks hooks)
    : rng_(rng), n_(n), hooks_(std::move(hooks)) {}

void Rounds::schedule_massive_failure(double time, double fraction) {
  validate_fault_times(time);
  validate_failure_fraction(fraction);
  failures_.push_back(PendingFailure{time, fraction});
}

void Rounds::schedule_crash(ProcessId pid, double time, double recover_time) {
  validate_fault_times(time, recover_time);
  // A targeted crash is a one-host departure (plus optional rejoin),
  // played back like churn; the host id is bounds-checked at apply time.
  crashes_.push_back(ChurnEvent{time, pid, false});
  if (recover_time >= 0.0) {
    crashes_.push_back(ChurnEvent{recover_time, pid, true});
  }
  std::stable_sort(
      crashes_.begin() + static_cast<std::ptrdiff_t>(crashes_next_),
      crashes_.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
        return a.time_hours < b.time_hours;
      });
}

void Rounds::set_crash_recovery(double crash_prob,
                                double mean_downtime_periods) {
  validate_crash_recovery(crash_prob, mean_downtime_periods);
  crash_prob_ = crash_prob;
  mean_downtime_ = mean_downtime_periods;
}

void Rounds::attach_churn(const ChurnTrace& trace, double periods_per_hour) {
  churn_ = trace_in_periods(trace, periods_per_hour);
  churn_next_ = 0;
  std::sort(churn_.begin(), churn_.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.time_hours < b.time_hours;
            });
}

void Rounds::begin_period(std::size_t period) {
  const auto t = static_cast<double>(period);
  // A failure is due once its time is <= the period start; one scheduled
  // "in the past" fires at the next boundary instead of being dropped.
  for (PendingFailure& pending : failures_) {
    if (pending.applied || pending.time > t) continue;
    pending.applied = true;
    hooks_.crash_random(
        failure_victims(pending.fraction, hooks_.total_alive()));
  }
  apply_until(crashes_, crashes_next_, t);
  apply_until(churn_, churn_next_, t + 1.0);

  // Due recoveries drain even after the process is disarmed: hosts already
  // down still come back, as the event backend's queued recoveries do.
  while (!recoveries_.empty() && recoveries_.begin()->first <= period) {
    Due due = std::move(recoveries_.begin()->second);
    recoveries_.erase(recoveries_.begin());
    std::sort(due.ids.begin(), due.ids.end());
    for (const auto& [time, pid] : due.ids) hooks_.recover(pid);
    if (due.anonymous > 0) hooks_.revive(due.anonymous);
  }
  if (!(crash_prob_ > 0.0)) return;
  const std::size_t crashes = rng_.binomial(hooks_.total_alive(), crash_prob_);
  const std::vector<ProcessId> victims = hooks_.crash_random(crashes);
  if (!(mean_downtime_ > 0.0)) return;
  for (std::size_t i = 0; i < crashes; ++i) {
    const double time = t + recovery_delay(rng_, mean_downtime_);
    Due& due = recoveries_[first_period_at_or_after(time)];
    if (i < victims.size()) {
      due.ids.emplace_back(time, victims[i]);
    } else {
      ++due.anonymous;
    }
  }
}

void Rounds::apply_until(const std::vector<ChurnEvent>& events,
                         std::size_t& next, double until) {
  while (next < events.size() && events[next].time_hours <= until) {
    const ChurnEvent& e = events[next++];
    if (e.host < n_) hooks_.apply(e);
  }
}

}  // namespace deproto::sim::fault_plan
