#include "sim/count_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/fault_plan.hpp"

namespace deproto::sim {

namespace {

/// Raw machines rejoin in state 0, as on the event and net backends
/// (fault_plan::Scheduler); revived processes enter here.
constexpr std::size_t kRejoinState = 0;

}  // namespace

CountSimulator::CountSimulator(std::size_t n,
                               core::ProtocolStateMachine machine,
                               std::uint64_t seed, CountSimOptions options)
    : options_(options),
      rng_(seed),
      metrics_(machine.num_states()),
      n_(n),
      counts_(machine.num_states(), 0),
      alive_(n),
      rule_(std::move(machine), n, options.message_loss, options.tokens) {
  if (!(options_.message_loss >= 0.0 && options_.message_loss <= 1.0)) {
    throw std::invalid_argument("CountSimulator: bad message_loss");
  }
  counts_[0] = n;
}

Group& CountSimulator::group() {
  throw std::logic_error(
      "CountSimulator::group: the count backend has no per-node group "
      "(use the sync or event backend for per-node-identity features)");
}

void CountSimulator::seed_states(const std::vector<std::size_t>& counts) {
  if (counts.size() > counts_.size()) {
    throw std::invalid_argument("seed_states: too many states");
  }
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total > alive_) {
    throw std::invalid_argument("seed_states: counts exceed group size");
  }
  std::fill(counts_.begin(), counts_.end(), 0);
  for (std::size_t s = 0; s < counts.size(); ++s) counts_[s] = counts[s];
  counts_[kRejoinState] += alive_ - total;
}

void CountSimulator::schedule_massive_failure(double time, double fraction) {
  fault_plan::validate_fault_times(time);
  fault_plan::validate_failure_fraction(fraction);
  failures_.push_back(PendingFailure{MassiveFailure{time, fraction}, false});
}

void CountSimulator::schedule_crash(ProcessId pid, double time,
                                    double recover_time) {
  fault_plan::validate_fault_times(time, recover_time);
  // Same scheduling machinery as the sync backend; the host id only
  // bounds-checks at apply time (the victim is anonymous).
  crashes_.push_back(ChurnEvent{time, pid, false});
  if (recover_time >= 0.0) {
    crashes_.push_back(ChurnEvent{recover_time, pid, true});
  }
  std::stable_sort(
      crashes_.begin() + static_cast<std::ptrdiff_t>(crashes_next_),
      crashes_.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
        return a.time_hours < b.time_hours;
      });
}

void CountSimulator::set_crash_recovery(double crash_prob,
                                        double mean_downtime_periods) {
  fault_plan::validate_crash_recovery(crash_prob, mean_downtime_periods);
  crash_prob_ = crash_prob;
  mean_downtime_ = mean_downtime_periods;
}

void CountSimulator::attach_churn(const ChurnTrace& trace,
                                  double periods_per_hour) {
  churn_ = fault_plan::trace_in_periods(trace, periods_per_hour);
  churn_next_ = 0;
  std::sort(churn_.begin(), churn_.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.time_hours < b.time_hours;
            });
}

void CountSimulator::remove_random_alive(std::size_t victims) {
  victims = std::min(victims, alive_);
  // Sequential binomial sweep over the state buckets: bucket s receives
  // Binomial(victims_left, c_s / pool_left) victims, clamped so the
  // remainder always fits in the buckets still ahead. For large counts
  // this is the multivariate hypergeometric up to O(1/pool) corrections.
  std::size_t pool = alive_;
  for (std::size_t s = 0; s < counts_.size() && victims > 0; ++s) {
    const std::size_t here = counts_[s];
    if (here == 0) continue;
    std::size_t take;
    if (here >= pool) {
      take = victims;
    } else {
      take = static_cast<std::size_t>(rng_.binomial(
          victims, static_cast<double>(here) / static_cast<double>(pool)));
      take = std::min(take, here);
      const std::size_t rest = pool - here;
      if (victims > take + rest) take = victims - rest;
    }
    counts_[s] -= take;
    alive_ -= take;
    victims -= take;
    pool -= here;
  }
}

void CountSimulator::crash_one_random() {
  std::uint64_t pick = rng_.uniform_int(alive_);
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    if (pick < counts_[s]) {
      --counts_[s];
      --alive_;
      return;
    }
    pick -= counts_[s];
  }
}

void CountSimulator::apply_anonymous_events(
    const std::vector<ChurnEvent>& events, std::size_t& next, double until) {
  while (next < events.size() && events[next].time_hours <= until) {
    const ChurnEvent& e = events[next++];
    if (e.host >= n_) continue;
    if (!e.up) {
      if (alive_ > 0) {
        crash_one_random();
        ++churn_down_;
      }
    } else if (churn_down_ > 0) {
      --churn_down_;
      ++counts_[kRejoinState];
      ++alive_;
    }
  }
}

void CountSimulator::execute_period(double t) {
  metrics_.begin_period(t);
  const std::vector<core::TransitionChannel> channels = count_channels(
      rule_.machine(), counts_, n_, options_.message_loss);
  counts_ = rule_.run(
      channels, counts_,
      [this](std::uint64_t trials, double p, std::size_t cap) {
        return std::min(static_cast<std::size_t>(rng_.binomial(trials, p)),
                        cap);
      },
      [this](std::size_t from, std::size_t to, std::size_t k) {
        metrics_.record_transitions(from, to, k);
      },
      tally_);
  metrics_.end_period(counts_, alive_);
}

void CountSimulator::run(std::size_t periods) {
  for (std::size_t k = 0; k < periods; ++k) {
    const auto t = static_cast<double>(period_);

    // Scheduled massive failures at the period start (due once time <= t,
    // like the sync backend's quantization).
    for (PendingFailure& pending : failures_) {
      if (pending.applied || pending.failure.time > t) continue;
      pending.applied = true;
      remove_random_alive(
          fault_plan::failure_victims(pending.failure.fraction, alive_));
    }

    // Targeted crashes quantize to the period start; churn keeps its
    // covering-period window (events inside [t, t+1) act this period).
    apply_anonymous_events(crashes_, crashes_next_, t);
    apply_anonymous_events(churn_, churn_next_, t + 1.0);

    // Crash-recovery revivals due at this boundary.
    while (!recoveries_.empty() && recoveries_.begin()->first <= period_) {
      const std::size_t back = recoveries_.begin()->second;
      recoveries_.erase(recoveries_.begin());
      counts_[kRejoinState] += back;
      alive_ += back;
    }
    if (crash_prob_ > 0.0) {
      const auto crashes =
          static_cast<std::size_t>(rng_.binomial(alive_, crash_prob_));
      remove_random_alive(crashes);
      if (mean_downtime_ > 0.0) {
        for (std::size_t i = 0; i < crashes; ++i) {
          const std::size_t due = fault_plan::first_period_at_or_after(
              t + fault_plan::recovery_delay(rng_, mean_downtime_));
          ++recoveries_[due];
        }
      }
    }

    execute_period(t);
    ++period_;
  }
}

void CountSimulator::run_for(double periods) {
  run(static_cast<std::size_t>(std::ceil(periods)));
}

}  // namespace deproto::sim
