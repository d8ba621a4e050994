#pragma once

// Host churn (Section 5.1, "Trace-based simulations"). The paper injected
// Overnet availability traces (hourly snapshots, 10-25% hourly churn,
// ~6.4 rejoins/host/day); those traces are not redistributable, so this
// module provides (a) playback of arbitrary up/down event traces and (b) a
// synthetic generator calibrated to the published Overnet statistics.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace deproto::sim {

struct ChurnEvent {
  double time_hours = 0.0;
  std::uint32_t host = 0;
  bool up = false;  // false: departure/failure; true: rejoin
};

class ChurnTrace {
 public:
  ChurnTrace() = default;

  /// Wrap a pre-sorted (or not) list of events; sorts by time.
  static ChurnTrace from_events(std::vector<ChurnEvent> events);

  /// Synthetic Overnet-like availability trace over `hours` hours for `n`
  /// hosts. Every hour, an hourly churn count is drawn uniformly from
  /// [min_rate, max_rate] * n; that many currently-up hosts depart at a
  /// uniformly random moment within the hour (the paper spread its hourly
  /// snapshots across each hour) and rejoin after an exponential downtime
  /// with mean `mean_downtime_hours`. Throws std::invalid_argument unless
  /// 0 <= min_rate <= max_rate <= 1.
  static ChurnTrace synthetic_overnet(std::size_t n, double hours,
                                      double min_rate, double max_rate,
                                      double mean_downtime_hours, Rng& rng);

  [[nodiscard]] const std::vector<ChurnEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Mean number of departures per host per day (for comparing the
  /// generator against the published 6.4 rejoins/day statistic).
  [[nodiscard]] double departures_per_host_day(std::size_t n,
                                               double hours) const;

 private:
  std::vector<ChurnEvent> events_;  // sorted by time
};

}  // namespace deproto::sim
