#pragma once
// Fault-plan quantization and validation rules shared by every execution
// backend (sync, event, count, net), plus the two fault surfaces built on
// them: the queue-driven Scheduler the asynchronous backends (event, net)
// run their faults through, and the period-boundary Rounds the
// round-based backends (sync, count) run theirs through. A backend that
// re-derives any of these risks drifting from the others in exactly the
// places the equivalence suites compare, so each is pinned here once.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/churn.hpp"
#include "sim/event_queue.hpp"
#include "sim/group.hpp"
#include "sim/rng.hpp"

namespace deproto::sim::fault_plan {

/// Throws std::invalid_argument unless fraction lies in [0, 1].
void validate_failure_fraction(double fraction);

/// Throws std::invalid_argument unless crash_prob lies in [0, 1] and the
/// mean downtime is non-negative.
void validate_crash_recovery(double crash_prob, double mean_downtime_periods);

/// Throws std::invalid_argument unless a fault's `time` is finite and its
/// `recover_time` is finite or negative (negative means no recovery, so
/// -inf passes; NaN and +inf do not). Massive failures pass only `time`.
void validate_fault_times(double time, double recover_time = -1.0);

/// Throws std::invalid_argument unless periods_per_hour is positive.
void validate_periods_per_hour(double periods_per_hour);

/// Massive-failure victim count: fraction of the currently alive
/// population, rounded to nearest (llround).
[[nodiscard]] std::size_t failure_victims(double fraction,
                                          std::size_t total_alive);

/// Convert a churn trace from wall-clock hours into protocol periods,
/// clamping each event to happen no earlier than `min_time` (the event
/// backend passes its current queue time so stale events fire "now"; the
/// sync backend passes 0). Order is preserved; callers needing sorted
/// playback sort afterwards.
[[nodiscard]] std::vector<ChurnEvent> trace_in_periods(
    const ChurnTrace& trace, double periods_per_hour, double min_time = 0.0);

/// Background crash-recovery downtime: one whole period (the crash is
/// only noticed at the next boundary) plus an exponential tail drawn from
/// `rng`. Returns the delay relative to the crash time.
[[nodiscard]] double recovery_delay(Rng& rng, double mean_downtime_periods);

/// First whole-period boundary at or after `time`: the period index where
/// a round-based backend notices an event scheduled at `time`. Negative
/// times clamp to period 0.
[[nodiscard]] std::size_t first_period_at_or_after(double time);

/// The fault surface of the asynchronous backends: massive failures,
/// targeted crashes, the background crash-recovery tick chain, and churn
/// playback, scheduled on the backend's EventQueue with draws from its
/// Rng. The scheduler does the Group bookkeeping itself (crash; recover
/// into state 0, the rejoin state of a raw machine) and tells the backend
/// through hooks, so only what a crash means for a node's timer or socket
/// stays backend-specific.
class Scheduler {
 public:
  struct Hooks {
    /// `pid` has just crashed, whatever the cause.
    std::function<void(ProcessId)> crashed;
    /// `pid` has just been revived into state 0.
    std::function<void(ProcessId)> recovered;
    /// A churn departure of alive `pid`, just before it crashes (net
    /// gossips a Leave). Optional: a plain crash needs nothing here.
    std::function<void(ProcessId)> departing;
  };

  Scheduler(EventQueue& queue, Rng& rng, Group& group, Hooks hooks);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The Simulator operations of the same names.
  void schedule_massive_failure(double time, double fraction);
  void schedule_crash(ProcessId pid, double time, double recover_time);
  void set_crash_recovery(double crash_prob, double mean_downtime_periods);
  void attach_churn(const ChurnTrace& trace, double periods_per_hour);

  /// Crash `pid` now; a no-op if it is already down.
  void crash(ProcessId pid);

 private:
  void recover(ProcessId pid);
  void on_crash_recovery_tick(std::uint64_t epoch);

  EventQueue& queue_;
  Rng& rng_;
  Group& group_;
  Hooks hooks_;
  double crash_prob_ = 0.0;     // background crash-recovery, per period
  double mean_downtime_ = 0.0;  // 0 = crash-stop
  // The queue offers no cancellation, so replaced work is fenced off by
  // epochs instead. attach_churn bumps churn_epoch_: events queued from
  // an earlier trace no-op. set_crash_recovery bumps recovery_epoch_: a
  // superseded tick chain dies at its next tick.
  std::uint64_t churn_epoch_ = 0;
  std::uint64_t recovery_epoch_ = 0;
};

/// The fault surface of the round-based backends: the same four
/// operations, quantized to period boundaries. begin_period(t) runs before
/// period t executes and applies, in this order:
///   1. massive failures due at t (time <= t), in scheduling order;
///   2. targeted crashes and recoveries due at t (time <= t), in time
///      order, equal times in scheduling order (a crash before its own
///      recovery, as the event queue's FIFO tie-break has it);
///   3. churn events with time <= t + 1: a trace event inside the period
///      acts during it, so it shows in that period's sample, as on the
///      event backend;
///   4. crash-recovery revivals due at t, then the period's background
///      crashes: binomial(alive, crash_prob) victims, then one recovery
///      delay per victim in victim order (also for anonymous victims).
/// Every draw but the victim sampling is made here, from the backend's
/// Rng. The plan knows nothing of the population; what a crash or a
/// revival does to it is the backend's, through the hooks.
class Rounds {
 public:
  struct Hooks {
    /// Crash `k` uniformly random alive processes. Returns the victims
    /// (sync), or nothing when processes carry no identity (count).
    std::function<std::vector<ProcessId>(std::size_t)> crash_random;
    /// A targeted crash or recovery, or a churn event, for a host < n.
    std::function<void(const ChurnEvent&)> apply;
    /// Revive one identified victim into state 0 (if it is still down).
    std::function<void(ProcessId)> recover;
    /// Revive `k` anonymous victims into state 0.
    std::function<void(std::size_t)> revive;
    std::function<std::size_t()> total_alive;
  };

  /// A plan for a membership of `n`, drawing from `rng`.
  Rounds(Rng& rng, std::size_t n, Hooks hooks);
  Rounds(const Rounds&) = delete;
  Rounds& operator=(const Rounds&) = delete;

  /// The Simulator operations of the same names.
  void schedule_massive_failure(double time, double fraction);
  void schedule_crash(ProcessId pid, double time, double recover_time);
  void set_crash_recovery(double crash_prob, double mean_downtime_periods);
  void attach_churn(const ChurnTrace& trace, double periods_per_hour);

  /// Apply every fault due at the start of period `period` (see above).
  void begin_period(std::size_t period);

 private:
  void apply_until(const std::vector<ChurnEvent>& events, std::size_t& next,
                   double until);

  /// Victims due back at one boundary: identified ones as (recovery time,
  /// pid), revived in that order, as a (time, pid) min-heap pops them;
  /// anonymous ones as a count, so the store grows with due periods.
  struct Due {
    std::vector<std::pair<double, ProcessId>> ids;
    std::size_t anonymous = 0;
  };
  struct PendingFailure {
    double time;
    double fraction;
    bool applied = false;
  };

  Rng& rng_;
  std::size_t n_;
  Hooks hooks_;
  std::vector<PendingFailure> failures_;
  std::vector<ChurnEvent> crashes_;  // schedule_crash events, in periods
  std::size_t crashes_next_ = 0;
  std::vector<ChurnEvent> churn_;  // the attached trace, in periods, sorted
  std::size_t churn_next_ = 0;
  double crash_prob_ = 0.0;     // background crash-recovery, per period
  double mean_downtime_ = 0.0;  // 0 = crash-stop
  std::map<std::size_t, Due> recoveries_;  // due period -> victims
};

}  // namespace deproto::sim::fault_plan
