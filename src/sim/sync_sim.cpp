#include "sim/sync_sim.hpp"

#include <cmath>

namespace deproto::sim {

SyncSimulator::SyncSimulator(std::size_t n, PeriodicProtocol& protocol,
                             std::uint64_t seed)
    : group_(n, protocol.num_states()),
      protocol_(protocol),
      rng_(seed),
      metrics_(protocol.num_states()),
      faults_(rng_, n,
              {.crash_random =
                   [this](std::size_t k) {
                     std::vector<ProcessId> victims =
                         group_.crash_random_alive(k, rng_);
                     for (ProcessId pid : victims) protocol_.on_crash(pid);
                     return victims;
                   },
               .apply =
                   [this](const ChurnEvent& e) {
                     if (e.up) {
                       if (!group_.alive(e.host)) group_.recover(e.host, 0);
                     } else if (group_.alive(e.host)) {
                       protocol_.on_crash(e.host);
                       group_.crash(e.host);
                     }
                   },
               .recover =
                   [this](ProcessId pid) {
                     if (!group_.alive(pid)) group_.recover(pid, 0);
                   },
               .total_alive = [this] { return group_.total_alive(); }}) {}

void SyncSimulator::run(std::size_t periods) {
  for (std::size_t k = 0; k < periods; ++k) {
    const auto t = static_cast<double>(period_);
    faults_.begin_period(period_);
    metrics_.begin_period(t);
    group_.set_transition_observer(
        [this](ProcessId, std::size_t from, std::size_t to) {
          metrics_.record_transition(from, to);
        });
    protocol_.execute_period(group_, rng_);
    group_.set_transition_observer(nullptr);
    metrics_.end_period(group_);
    ++period_;
  }
}

void SyncSimulator::run_for(double periods) {
  run(static_cast<std::size_t>(std::ceil(periods)));
}

}  // namespace deproto::sim
