#pragma once

// Per-period measurement: alive population per state and transition
// (flux) counts, with summary statistics over period windows (Figure 7
// reports median/min/max over a 2000-period interval).

#include <cstddef>
#include <cstdint>
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
  /// backend has no Group).
  void end_period(const std::vector<std::size_t>& alive_in_state,
                  std::size_t total_alive);

  [[nodiscard]] const std::vector<PeriodSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t num_states() const noexcept { return states_; }

  /// Summary of alive_in_state[state] over sample indices [first, last).
  [[nodiscard]] WindowSummary summarize_state(std::size_t state,
                                              std::size_t first,
                                              std::size_t last) const;

  /// Summary of transitions[from][to] per period over [first, last).
  [[nodiscard]] WindowSummary summarize_flux(std::size_t from, std::size_t to,
                                             std::size_t first,
                                             std::size_t last) const;

 private:
  std::size_t states_;
  std::vector<PeriodSample> samples_;
  PeriodSample current_;
  bool in_period_ = false;
};

}  // namespace deproto::sim
