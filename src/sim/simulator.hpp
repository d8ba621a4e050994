#pragma once

// The unified simulator interface: one fault/scheduling/seeding API over
// all execution backends (round-synchronous SyncSimulator, the count-based
// CountSimulator, and the two asynchronous backends, EventSimulator and
// net::NetSimulator, which share one runtime, sim::AsyncRuntime). This
// is the scheduler-independence claim of the paper made concrete: an
// experiment is programmed once against `Simulator&` -- seeding, massive
// failures, background crash-recovery, churn-trace playback, targeted
// crashes -- and executes unchanged on any backend.
//
// Population observation happens through the count accessors
// (num_states / count / total_alive): those are defined on every backend.
// group() exposes per-node identity and is only available where the
// backend actually materializes one object per process (per_node() true);
// the count backend has no such representation and throws.
//
// Time convention: every time argument is measured in *fractional protocol
// periods* from simulation start. The round-based backends (sync, count)
// quantize to period boundaries through one shared plan,
// fault_plan::Rounds (a fault at time t fires at the start of the first
// period >= t, and run_for rounds up to whole rounds); the event and net
// backends honor fractional times exactly through AsyncRuntime's
// fault_plan::Scheduler.
// now() reports the current simulation time in the same unit, so
// `run_for(k)` always advances now() by (at least) k.

#include <cstddef>
#include <vector>

#include "sim/churn.hpp"
#include "sim/group.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"

namespace deproto::sim {

/// A scheduled "massive failure" (Figures 5 and 12): at `time`, crash a
/// uniformly random `fraction` of the processes alive at that moment.
struct MassiveFailure {
  double time = 0.0;      // fractional periods (sync, count: period >= time)
  double fraction = 0.5;  // of currently-alive processes

  friend bool operator==(const MassiveFailure&,
                         const MassiveFailure&) = default;
};

class Simulator {
 public:
  virtual ~Simulator() = default;

  /// Per-node process table. Only available when per_node() is true; the
  /// count backend throws std::logic_error (it has no per-node identity).
  [[nodiscard]] virtual Group& group() = 0;
  [[nodiscard]] virtual MetricsCollector& metrics() noexcept = 0;
  [[nodiscard]] virtual Rng& rng() noexcept = 0;
  /// Current simulation time in fractional periods.
  [[nodiscard]] virtual double now() const noexcept = 0;

  /// Whether this backend materializes one object per process (and thus
  /// supports group(), per-host history, and targeted schedule_crash by
  /// identity). The count backend returns false.
  [[nodiscard]] virtual bool per_node() const noexcept { return true; }

  /// Count-level population observation, defined on every backend: the
  /// number of protocol states, alive processes currently in `state`, and
  /// total alive processes.
  [[nodiscard]] virtual std::size_t num_states() const noexcept = 0;
  [[nodiscard]] virtual std::size_t count(std::size_t state) const = 0;
  [[nodiscard]] virtual std::size_t total_alive() const noexcept = 0;

  /// Distribute initial states: counts[s] processes start in state s
  /// (counts must sum to <= N; remaining processes keep state 0). On the
  /// per-node backends a crashed process uses up its slot and stays down.
  /// Throws std::invalid_argument on more counts than states or on counts
  /// summing past N.
  virtual void seed_states(const std::vector<std::size_t>& counts) = 0;

  /// Crash `fraction` of the alive processes at `time`. Throws
  /// std::invalid_argument unless fraction is in [0, 1].
  virtual void schedule_massive_failure(double time, double fraction) = 0;

  /// Crash one process at `time`; if `recover_time` >= 0, revive it then
  /// into state 0. The protocol's on_crash() hook fires at crash time.
  virtual void schedule_crash(ProcessId pid, double time,
                              double recover_time = -1.0) = 0;

  /// Background crash-recovery failures: each alive process independently
  /// crashes with probability `crash_prob` per period and recovers after
  /// (one period plus) an exponential downtime with the given mean. A mean
  /// of 0 makes crashes permanent (crash-stop). Throws
  /// std::invalid_argument on a probability outside [0, 1] or a negative
  /// mean.
  virtual void set_crash_recovery(double crash_prob,
                                  double mean_downtime_periods) = 0;

  /// Play back a churn trace; `periods_per_hour` converts trace hours to
  /// protocol periods (the paper: 6-minute periods => 10 periods/hour).
  /// Departed hosts fire on_crash(); rejoining hosts enter state 0.
  /// Attaching a new trace replaces any previously attached one. Throws
  /// std::invalid_argument unless periods_per_hour > 0.
  virtual void attach_churn(const ChurnTrace& trace,
                            double periods_per_hour) = 0;

  /// Advance the simulation by `periods` (the sync backend rounds up to
  /// whole rounds). Metrics record one sample per whole period.
  virtual void run_for(double periods) = 0;
};

}  // namespace deproto::sim
