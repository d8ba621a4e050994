#pragma once

// The interface the synchronous simulator drives, one execute_period call
// per protocol period. The paper's case studies implement it through
// MachineExecutor (sim/runtime.hpp), which interprets a machine synthesized
// from the ODE; the non-ODE baselines of protocols/ implement it by hand.
// A process that rejoins after churn or crash-recovery enters state 0, as
// on every other backend.

#include <cstddef>

#include "sim/group.hpp"
#include "sim/rng.hpp"

namespace deproto::sim {

class PeriodicProtocol {
 public:
  virtual ~PeriodicProtocol() = default;

  /// Number of state-machine states (== Group::num_states()).
  [[nodiscard]] virtual std::size_t num_states() const = 0;

  /// Execute one protocol period for all alive processes.
  virtual void execute_period(Group& group, Rng& rng) = 0;

  /// Hook called when a process crashes (e.g. drop stored replicas).
  virtual void on_crash(ProcessId /*pid*/) {}
};

}  // namespace deproto::sim
