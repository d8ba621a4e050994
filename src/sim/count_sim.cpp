#include "sim/count_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <variant>

#include "core/action.hpp"
#include "core/transition_model.hpp"
#include "numerics/vector.hpp"
#include "sim/fault_plan.hpp"

namespace deproto::sim {

namespace {

/// Raw machines rejoin in state 0, as on the event and net backends
/// (fault_plan::Scheduler); revived processes enter here.
constexpr std::size_t kRejoinState = 0;

/// Probes the per-node executors charge for one attempt of `action`:
/// messages_per_period minus the Tokenizing hand-off message (which the
/// per-node backends account under token stats, not probes).
std::uint64_t probes_of(const core::Action& action) {
  const std::size_t messages = core::messages_per_period(action);
  if (std::holds_alternative<core::TokenizingAction>(action)) {
    return messages - 1;
  }
  return messages;
}

}  // namespace

CountSimulator::CountSimulator(std::size_t n,
                               core::ProtocolStateMachine machine,
                               std::uint64_t seed, CountSimOptions options)
    : machine_(std::move(machine)),
      options_(options),
      rng_(seed),
      metrics_(machine_.num_states()),
      n_(n),
      counts_(machine_.num_states(), 0),
      alive_(n) {
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
  const std::size_t m = counts_.size();

  // Per-probe hit probabilities: a probe draws uniformly from the N-1
  // other members of the maximal membership, dead targets are fruitless.
  num::Vec hit(m, 0.0);
  if (n_ >= 2) {
    const double denom = static_cast<double>(n_ - 1);
    for (std::size_t s = 0; s < m; ++s) {
      hit[s] = static_cast<double>(counts_[s]) / denom;
    }
  }
  const std::vector<core::TransitionChannel> channels =
      core::transition_channels(machine_, hit, options_.message_loss);

  // Jacobi sweep: all draws read the period-start counts.
  const std::vector<std::size_t> start = counts_;
  std::vector<std::size_t> moved_out(m, 0);
  std::vector<std::size_t> moved_in(m, 0);

  struct TokenBatch {
    std::size_t token_state;
    std::size_t to_state;
    std::size_t generated;
  };
  struct PushBatch {
    std::size_t target_state;
    std::size_t to_state;
    double coin_bias;
    std::uint64_t contacts;
  };
  std::vector<TokenBatch> token_batches;
  std::vector<PushBatch> push_batches;

  for (std::size_t s = 0; s < m; ++s) {
    std::size_t remaining = start[s];
    if (remaining == 0) continue;
    // Sequential binomial chain in actions_of order: a process that fires
    // a self-transition stops executing, so each later action only sees
    // the executors not yet moved (the per-node `break` semantics).
    for (std::size_t idx : machine_.actions_of(s)) {
      const core::TransitionChannel& ch = channels[idx];
      const core::Action& action = machine_.actions()[idx];
      probes_total_ +=
          static_cast<std::uint64_t>(remaining) * probes_of(action);
      if (ch.moves_executor) {
        const std::size_t fired =
            static_cast<std::size_t>(rng_.binomial(remaining, ch.fire_prob));
        if (fired > 0) {
          moved_out[s] += fired;
          moved_in[ch.to] += fired;
          metrics_.record_transitions(s, ch.to, fired);
          remaining -= fired;
        }
      } else if (std::holds_alternative<core::TokenizingAction>(action)) {
        const std::size_t generated =
            static_cast<std::size_t>(rng_.binomial(remaining, ch.fire_prob));
        tokens_.generated += generated;
        if (generated > 0) {
          token_batches.push_back(TokenBatch{ch.from, ch.to, generated});
        }
      } else {
        const auto& push = std::get<core::PushAction>(action);
        const auto contacts =
            static_cast<std::uint64_t>(remaining) * push.fanout;
        if (contacts > 0) {
          push_batches.push_back(PushBatch{push.target_state, push.to_state,
                                           push.coin_bias, contacts});
        }
      }
      if (remaining == 0) break;
    }
  }

  // Conversion targets still available: period-start members that no
  // self-transition moved (token hand-offs and push contacts land on the
  // period-start population, the Jacobi reading of the per-node races).
  std::vector<std::size_t> stayers(m);
  for (std::size_t s = 0; s < m; ++s) stayers[s] = start[s] - moved_out[s];

  for (const TokenBatch& batch : token_batches) {
    std::size_t delivered = 0;
    if (options_.tokens.mode == TokenRouting::Mode::Directory) {
      // Directory hand-off: a token drops only when the state is empty.
      delivered = std::min(batch.generated, stayers[batch.token_state]);
    } else {
      // TTL-bounded random walk: each hop dies to loss with probability
      // f, else lands on a token_state member with probability c / N.
      const double f = options_.message_loss;
      const double q =
          n_ > 0 ? static_cast<double>(start[batch.token_state]) /
                       static_cast<double>(n_)
                 : 0.0;
      double p_deliver = 0.0;
      double surviving = 1.0;
      for (unsigned hop = 0; hop < options_.tokens.ttl; ++hop) {
        p_deliver += surviving * (1.0 - f) * q;
        surviving *= (1.0 - f) * (1.0 - q);
      }
      delivered = std::min(
          static_cast<std::size_t>(rng_.binomial(batch.generated, p_deliver)),
          stayers[batch.token_state]);
    }
    stayers[batch.token_state] -= delivered;
    moved_out[batch.token_state] += delivered;
    moved_in[batch.to_state] += delivered;
    if (delivered > 0) {
      metrics_.record_transitions(batch.token_state, batch.to_state,
                                  delivered);
    }
    tokens_.delivered += delivered;
    tokens_.dropped += batch.generated - delivered;
  }

  for (const PushBatch& batch : push_batches) {
    if (n_ < 2) break;
    const std::size_t candidates = stayers[batch.target_state];
    if (candidates == 0) continue;
    // P(one target converted) = 1 - (1 - (1-f) * coin / (N-1))^contacts:
    // each contact picks one of the N-1 others uniformly, survives loss,
    // and flips the conversion coin.
    const double per_contact = (1.0 - options_.message_loss) *
                               batch.coin_bias /
                               static_cast<double>(n_ - 1);
    const double p_converted =
        1.0 -
        std::pow(1.0 - per_contact, static_cast<double>(batch.contacts));
    const std::size_t converted =
        static_cast<std::size_t>(rng_.binomial(candidates, p_converted));
    if (converted == 0) continue;
    stayers[batch.target_state] -= converted;
    moved_out[batch.target_state] += converted;
    moved_in[batch.to_state] += converted;
    metrics_.record_transitions(batch.target_state, batch.to_state,
                                converted);
  }

  for (std::size_t s = 0; s < m; ++s) {
    counts_[s] = start[s] - moved_out[s] + moved_in[s];
  }
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
