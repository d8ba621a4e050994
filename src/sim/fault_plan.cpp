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
  if (pid >= group_.size()) return;  // ignored, like the sync backend
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
      // Recoveries outlive a later disarm, as the sync backend's heap
      // does.
      queue_.schedule_in(recovery_delay(rng_, mean_downtime_),
                         [this, pid] { recover(pid); });
    }
  }
  queue_.schedule_in(1.0, [this, epoch] { on_crash_recovery_tick(epoch); });
}

void Scheduler::attach_churn(const ChurnTrace& trace,
                             double periods_per_hour) {
  // Attaching replaces any earlier trace (the sync backend's semantics).
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

}  // namespace deproto::sim::fault_plan
