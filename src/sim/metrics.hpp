#pragma once

// Per-period measurement: alive population per state, transition (flux)
// counts, and optional per-host membership history (Figure 8's stasher
// scatter). Also summary statistics over period windows (Figure 7 reports
// median/min/max over a 2000-period interval) and CSV writers.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/group.hpp"

namespace deproto::sim {

struct PeriodSample {
  double time = 0.0;                     // in protocol periods
  std::vector<std::size_t> alive_in_state;
  std::size_t total_alive = 0;
  std::vector<std::size_t> transitions;  // S x S, row-major [from*S + to]
};

struct WindowSummary {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t num_states);

  /// Record which hosts occupy `state` each period (costs O(count) per
  /// period; enable only for small-N experiments like Figure 8).
  void enable_host_history(std::size_t state);

  /// Start accumulating transitions for the period beginning at `t`.
  void begin_period(double t);

  /// Count one state transition within the current period.
  void record_transition(std::size_t from, std::size_t to);

  /// Count `count` state transitions at once (the count backend moves
  /// whole binomial batches per action instead of one process at a time).
  void record_transitions(std::size_t from, std::size_t to,
                          std::size_t count);

  /// Snapshot populations and close the current period.
  void end_period(const Group& group);

  /// Close the current period from a per-state count vector (the count
  /// backend has no Group). Host history needs per-node identity, so this
  /// throws std::logic_error when enable_host_history() is active.
  void end_period(const std::vector<std::size_t>& alive_in_state,
                  std::size_t total_alive);

  [[nodiscard]] const std::vector<PeriodSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t num_states() const noexcept { return states_; }

  /// Hosts that occupied the tracked state, one vector per recorded period.
  [[nodiscard]] const std::vector<std::vector<ProcessId>>& host_history()
      const noexcept {
    return host_history_;
  }

  /// Summary of alive_in_state[state] over sample indices [first, last).
  [[nodiscard]] WindowSummary summarize_state(std::size_t state,
                                              std::size_t first,
                                              std::size_t last) const;

  /// Summary of transitions[from][to] per period over [first, last).
  [[nodiscard]] WindowSummary summarize_flux(std::size_t from, std::size_t to,
                                             std::size_t first,
                                             std::size_t last) const;

  /// CSV: time, one column per state, total_alive.
  void write_population_csv(std::ostream& out,
                            const std::vector<std::string>& names) const;

  /// CSV: time, one column per (from->to) pair with nonzero total flux.
  void write_flux_csv(std::ostream& out,
                      const std::vector<std::string>& names) const;

 private:
  std::size_t states_;
  std::vector<PeriodSample> samples_;
  PeriodSample current_;
  bool in_period_ = false;
  bool track_hosts_ = false;
  std::size_t tracked_state_ = 0;
  std::vector<std::vector<ProcessId>> host_history_;
};

}  // namespace deproto::sim
