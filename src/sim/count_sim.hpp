#pragma once

// Count-based (structure-of-arrays) execution backend: the population is a
// per-state count vector and one period costs O(states + actions) instead
// of O(N). A period is sim::CountPeriod (sim/count_period.hpp) sampled
// with Rng::binomial: batched binomial draws against the same per-action
// firing probabilities the per-node backends realize probe by probe
// (core::transition_channels evaluated at per-probe hit probabilities
// c_s / (N-1)), so for large N the trajectory is the same Markov chain up
// to the approximations below. This is the regime the paper's mean-field
// theory licenses: above a crossover N the population is fully described
// by its counts. analysis::ExactChain enumerates the same CountPeriod, so
// its kernel is this backend's fault-free period exactly.
//
// Approximations relative to the per-node backends (all O(1/N) or
// fault-plan bookkeeping, none affecting count-level distributions for
// the scenarios the registry ships):
//   * Jacobi sweeps: every action reads the period-start counts, like
//     RuntimeOptions::simultaneous_updates; the per-node default
//     (Gauss-Seidel) agrees to O(rate^2) per period.
//   * Stop-after-first-firing is modeled by a sequential binomial chain
//     over actions_of(state), thinning the executor pool in action order.
//   * Faults are anonymous: the fault plan is fault_plan::Rounds, the
//     sync backend's, with its draws and period boundaries, but a victim
//     has no identity. Massive failures and background crashes remove
//     multivariate-hypergeometric batches across states; targeted
//     crashes and churn events each hit one uniformly random alive
//     process; revivals rejoin state 0 as a count.
//   * probes_total counts full probe fan-out per executor (the per-node
//     backends stop probing at the first mismatched response).
//
// Per-node-identity features (group(), host history, token tracing by
// pid) are unavailable: group() throws, and the API layer surfaces that
// as a SpecError steering such experiments to the per-node backends.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/state_machine.hpp"
#include "sim/churn.hpp"
#include "sim/count_period.hpp"
#include "sim/fault_plan.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"

namespace deproto::sim {

struct CountSimOptions {
  /// Per-connection-attempt failure probability f (as RuntimeOptions).
  double message_loss = 0.0;
  TokenRouting tokens;

  friend bool operator==(const CountSimOptions&,
                         const CountSimOptions&) = default;
};

class CountSimulator final : public Simulator {
 public:
  /// N processes, all alive in state 0, interpreting `machine`.
  CountSimulator(std::size_t n, core::ProtocolStateMachine machine,
                 std::uint64_t seed, CountSimOptions options = {});

  /// Always throws std::logic_error: no per-node representation exists.
  [[nodiscard]] Group& group() override;
  [[nodiscard]] MetricsCollector& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] Rng& rng() noexcept override { return rng_; }
  [[nodiscard]] double now() const noexcept override {
    return static_cast<double>(period_);
  }
  [[nodiscard]] bool per_node() const noexcept override { return false; }
  [[nodiscard]] std::size_t num_states() const noexcept override {
    return counts_.size();
  }
  [[nodiscard]] std::size_t count(std::size_t state) const override {
    return counts_.at(state);
  }
  [[nodiscard]] std::size_t total_alive() const noexcept override {
    return alive_;
  }
  [[nodiscard]] std::size_t current_period() const noexcept {
    return period_;
  }

  [[nodiscard]] const core::ProtocolStateMachine& machine() const noexcept {
    return rule_.machine();
  }
  [[nodiscard]] const TokenStats& token_stats() const noexcept {
    return tally_.tokens;
  }
  /// Probes the per-node backends would have sent, assuming full fan-out.
  [[nodiscard]] std::uint64_t probes_total() const noexcept {
    return tally_.probes;
  }

  /// Launch-time seeding (all processes alive): counts[s] processes start
  /// in state s, the unseeded remainder stays in state 0.
  void seed_states(const std::vector<std::size_t>& counts) override;

  void schedule_massive_failure(double time, double fraction) override {
    faults_.schedule_massive_failure(time, fraction);
  }
  /// `pid` only bounds-checks against N; the victim is a uniformly random
  /// alive process (counts carry no identity).
  void schedule_crash(ProcessId pid, double time,
                      double recover_time = -1.0) override {
    faults_.schedule_crash(pid, time, recover_time);
  }
  void set_crash_recovery(double crash_prob,
                          double mean_downtime_periods) override {
    faults_.set_crash_recovery(crash_prob, mean_downtime_periods);
  }
  void attach_churn(const ChurnTrace& trace,
                    double periods_per_hour) override {
    faults_.attach_churn(trace, periods_per_hour);
  }

  /// Run `periods` more rounds; metrics record one sample per round.
  void run(std::size_t periods);

  /// Simulator interface: rounds `periods` up to whole rounds.
  void run_for(double periods) override;

 private:
  /// Remove `victims` uniformly random alive processes: a sequential
  /// binomial approximation of the multivariate hypergeometric across the
  /// state buckets, with feasibility clamps so the total always lands.
  void remove_random_alive(std::size_t victims);
  /// A targeted or churn event: a departure crashes one uniformly random
  /// alive process (categorical by counts); an arrival revives one of
  /// them while any is down.
  void apply_event(const ChurnEvent& event);
  void execute_period(double t);

  CountSimOptions options_;
  Rng rng_;
  MetricsCollector metrics_;
  std::size_t n_;                    // fixed maximal membership
  std::vector<std::size_t> counts_;  // alive processes per state
  std::size_t alive_;
  std::size_t period_ = 0;
  /// Processes taken down by churn/targeted events and not yet revived:
  /// an "up" event revives one of them (anonymously) when nonzero.
  std::size_t churn_down_ = 0;
  fault_plan::Rounds faults_;  // after the members its hooks reach

  CountPeriod rule_;  // after counts_: it takes the machine by move
  CountTally tally_;
};

}  // namespace deproto::sim
