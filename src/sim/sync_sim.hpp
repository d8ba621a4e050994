#pragma once

// Round-synchronous simulator: the execution model of the paper's own
// experiments ("multiple instances running synchronously over a simulated
// network, all on a single machine"). One round == one protocol period;
// time on all plots is measured in periods. Implements the full unified
// Simulator fault surface (scheduled massive failures, targeted crashes,
// background crash-recovery, churn-trace playback) through
// fault_plan::Rounds, shared with the count backend; this file only says
// what a crash or a revival does to the Group.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/churn.hpp"
#include "sim/fault_plan.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/simulator.hpp"

namespace deproto::sim {

class SyncSimulator final : public Simulator {
 public:
  /// The group starts with all processes alive in protocol state 0 unless
  /// the caller mutates `group()` before run().
  SyncSimulator(std::size_t n, PeriodicProtocol& protocol,
                std::uint64_t seed);

  [[nodiscard]] Group& group() noexcept override { return group_; }
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  [[nodiscard]] Rng& rng() noexcept override { return rng_; }
  [[nodiscard]] MetricsCollector& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] std::size_t num_states() const noexcept override {
    return group_.num_states();
  }
  [[nodiscard]] std::size_t count(std::size_t state) const override {
    return group_.count(state);
  }
  [[nodiscard]] std::size_t total_alive() const noexcept override {
    return group_.total_alive();
  }
  [[nodiscard]] std::size_t current_period() const noexcept {
    return period_;
  }
  [[nodiscard]] double now() const noexcept override {
    return static_cast<double>(period_);
  }

  /// Faults fire at the start of the first period >= their time (see
  /// fault_plan::Rounds); a recovered process enters state 0.
  void schedule_massive_failure(double time, double fraction) override {
    faults_.schedule_massive_failure(time, fraction);
  }
  void schedule_crash(ProcessId pid, double time,
                      double recover_time = -1.0) override {
    faults_.schedule_crash(pid, time, recover_time);
  }
  void attach_churn(const ChurnTrace& trace,
                    double periods_per_hour) override {
    faults_.attach_churn(trace, periods_per_hour);
  }
  void set_crash_recovery(double crash_prob,
                          double mean_downtime_periods) override {
    faults_.set_crash_recovery(crash_prob, mean_downtime_periods);
  }

  /// Run `periods` more rounds. Metrics record one sample per round.
  void run(std::size_t periods);

  /// Simulator interface: rounds `periods` up to whole rounds.
  void run_for(double periods) override;

  void seed_states(const std::vector<std::size_t>& counts) override {
    group_.seed_states(counts);
  }

 private:
  Group group_;
  PeriodicProtocol& protocol_;
  Rng rng_;
  MetricsCollector metrics_;
  std::size_t period_ = 0;
  fault_plan::Rounds faults_;  // after the members its hooks reach
};

}  // namespace deproto::sim
