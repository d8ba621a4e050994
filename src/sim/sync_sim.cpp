#include "sim/sync_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/fault_plan.hpp"

namespace deproto::sim {

SyncSimulator::SyncSimulator(std::size_t n, PeriodicProtocol& protocol,
                             std::uint64_t seed)
    : group_(n, protocol.num_states()),
      protocol_(protocol),
      rng_(seed),
      metrics_(protocol.num_states()) {}

void SyncSimulator::schedule_massive_failure(double time, double fraction) {
  fault_plan::validate_fault_times(time);
  fault_plan::validate_failure_fraction(fraction);
  failures_.push_back(PendingFailure{MassiveFailure{time, fraction}, false});
}

void SyncSimulator::schedule_crash(ProcessId pid, double time,
                                   double recover_time) {
  fault_plan::validate_fault_times(time, recover_time);
  // Reuses the churn playback machinery: a targeted crash is a one-host
  // departure (plus optional rejoin), already expressed in periods.
  crashes_.push_back(ChurnEvent{time, pid, false});
  if (recover_time >= 0.0) {
    crashes_.push_back(ChurnEvent{recover_time, pid, true});
  }
  // Stable: equal-time events keep scheduling order (crash before its own
  // recovery), matching the event queue's FIFO tie-breaking.
  std::stable_sort(
      crashes_.begin() + static_cast<std::ptrdiff_t>(crashes_next_),
      crashes_.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
        return a.time_hours < b.time_hours;
      });
}

void SyncSimulator::attach_churn(const ChurnTrace& trace,
                                 double periods_per_hour) {
  churn_ = fault_plan::trace_in_periods(trace, periods_per_hour);
  churn_next_ = 0;
  std::sort(churn_.begin(), churn_.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.time_hours < b.time_hours;
            });
}

void SyncSimulator::set_crash_recovery(double crash_prob,
                                       double mean_downtime_periods) {
  fault_plan::validate_crash_recovery(crash_prob, mean_downtime_periods);
  crash_prob_ = crash_prob;
  mean_downtime_ = mean_downtime_periods;
}

void SyncSimulator::apply_churn_until(std::vector<ChurnEvent>& events,
                                      std::size_t& next, double period_time) {
  while (next < events.size() && events[next].time_hours <= period_time) {
    const ChurnEvent& e = events[next++];
    if (e.host >= group_.size()) continue;
    if (!e.up) {
      if (group_.alive(e.host)) {
        protocol_.on_crash(e.host);
        group_.crash(e.host);
      }
    } else {
      if (!group_.alive(e.host)) {
        group_.recover(e.host, 0);
      }
    }
  }
}

void SyncSimulator::run(std::size_t periods) {
  for (std::size_t k = 0; k < periods; ++k) {
    const auto t = static_cast<double>(period_);

    // Scheduled massive failures at the start of the period. A failure is
    // due once its time is <= the period start; anything scheduled "in the
    // past" fires at the next boundary instead of being silently dropped.
    for (PendingFailure& pending : failures_) {
      if (pending.applied || pending.failure.time > t) continue;
      pending.applied = true;
      const std::size_t victims = fault_plan::failure_victims(
          pending.failure.fraction, group_.total_alive());
      for (ProcessId pid : group_.crash_random_alive(victims, rng_)) {
        protocol_.on_crash(pid);
      }
    }

    // Targeted crashes quantize like massive failures: they fire at the
    // start of the first period >= their time (matching the event backend
    // at whole-period times). Churn playback keeps its covering-period
    // semantics: a trace event inside [t, t+1) takes effect during that
    // period, so it is visible in the same period's sample on both
    // backends.
    apply_churn_until(crashes_, crashes_next_, t);
    apply_churn_until(churn_, churn_next_, t + 1.0);

    // Background crash-recovery. Due recoveries drain even after the
    // process is disarmed (crash_prob_ reset to 0): already-crashed hosts
    // still come back, exactly as the event backend's queued recovery
    // events do.
    while (!recoveries_.empty() && recoveries_.top().first <= t) {
      const ProcessId pid = recoveries_.top().second;
      recoveries_.pop();
      if (!group_.alive(pid)) {
        group_.recover(pid, 0);
      }
    }
    if (crash_prob_ > 0.0) {
      const std::size_t crashes =
          rng_.binomial(group_.total_alive(), crash_prob_);
      for (ProcessId pid : group_.crash_random_alive(crashes, rng_)) {
        protocol_.on_crash(pid);
        if (mean_downtime_ > 0.0) {
          recoveries_.emplace(
              t + fault_plan::recovery_delay(rng_, mean_downtime_), pid);
        }
      }
    }

    metrics_.begin_period(t);
    group_.set_transition_observer(
        [this](ProcessId, std::size_t from, std::size_t to) {
          metrics_.record_transition(from, to);
        });
    protocol_.execute_period(group_, rng_, metrics_);
    group_.set_transition_observer(nullptr);
    metrics_.end_period(group_);
    ++period_;
  }
}

void SyncSimulator::run_for(double periods) {
  run(static_cast<std::size_t>(std::ceil(periods)));
}

}  // namespace deproto::sim
