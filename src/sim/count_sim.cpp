#include "sim/count_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
      faults_(rng_, n,
              {.crash_random =
                   [this](std::size_t k) {
                     remove_random_alive(k);
                     return std::vector<ProcessId>{};
                   },
               .apply = [this](const ChurnEvent& e) { apply_event(e); },
               .revive =
                   [this](std::size_t k) {
                     counts_[kRejoinState] += k;
                     alive_ += k;
                   },
               .total_alive = [this] { return alive_; }}),
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

void CountSimulator::apply_event(const ChurnEvent& event) {
  if (event.up) {
    if (churn_down_ == 0) return;
    --churn_down_;
    ++counts_[kRejoinState];
    ++alive_;
    return;
  }
  if (alive_ == 0) return;
  std::uint64_t pick = rng_.uniform_int(alive_);
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    if (pick < counts_[s]) {
      --counts_[s];
      --alive_;
      break;
    }
    pick -= counts_[s];
  }
  ++churn_down_;
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
    faults_.begin_period(period_);
    execute_period(static_cast<double>(period_));
    ++period_;
  }
}

void CountSimulator::run_for(double periods) {
  run(static_cast<std::size_t>(std::ceil(periods)));
}

}  // namespace deproto::sim
