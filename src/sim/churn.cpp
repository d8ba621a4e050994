#include "sim/churn.hpp"

#include <algorithm>
#include <stdexcept>

namespace deproto::sim {

ChurnTrace ChurnTrace::from_events(std::vector<ChurnEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.time_hours < b.time_hours;
            });
  ChurnTrace trace;
  trace.events_ = std::move(events);
  return trace;
}

ChurnTrace ChurnTrace::synthetic_overnet(std::size_t n, double hours,
                                         double min_rate, double max_rate,
                                         double mean_downtime_hours,
                                         Rng& rng) {
  // A rate outside [0, 1] would turn rate * n into a negative or
  // oversized departure count below.
  if (!(min_rate >= 0.0 && min_rate <= max_rate && max_rate <= 1.0)) {
    throw std::invalid_argument(
        "ChurnTrace::synthetic_overnet: need 0 <= min_rate <= max_rate <= 1");
  }
  std::vector<ChurnEvent> events;
  // up_until[h] > t  means host h is up at time t.
  std::vector<double> down_until(n, 0.0);

  for (double hour = 0.0; hour < hours; hour += 1.0) {
    const double rate = rng.uniform(min_rate, max_rate);
    const auto departures =
        static_cast<std::size_t>(rate * static_cast<double>(n));
    // Choose departure candidates among hosts currently up for the whole
    // hour start; duplicates are filtered via the down_until check.
    for (std::uint64_t pick :
         rng.sample_without_replacement(n, std::min(departures, n))) {
      const auto host = static_cast<std::uint32_t>(pick);
      const double leave = hour + rng.uniform01();
      if (down_until[host] > leave) continue;  // already down then
      const double rejoin = leave + rng.exponential_mean(mean_downtime_hours);
      events.push_back(ChurnEvent{leave, host, false});
      if (rejoin < hours) {
        events.push_back(ChurnEvent{rejoin, host, true});
      }
      down_until[host] = rejoin;
    }
  }
  return from_events(std::move(events));
}

double ChurnTrace::departures_per_host_day(std::size_t n,
                                           double hours) const {
  if (n == 0 || hours <= 0.0) return 0.0;
  std::size_t departures = 0;
  for (const ChurnEvent& e : events_) {
    if (!e.up) ++departures;
  }
  return static_cast<double>(departures) /
         (static_cast<double>(n) * hours / 24.0);
}

}  // namespace deproto::sim
