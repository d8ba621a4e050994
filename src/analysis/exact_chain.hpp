#pragma once

// Exact finite-N model checking: the count-vector Markov chain of a
// synthesized protocol, built and analyzed without running a single
// period. Where the machine checks (analysis/machine_checks.hpp) reason
// about the mean field -- exact only as N goes to infinity -- ExactChain
// enumerates the full lattice of population counts over the machine's
// states (C(N+S-1, S-1) points) and constructs the exact one-period
// transition kernel of sim::CountSimulator's fault-free dynamics. The
// kernel *is* sim::CountPeriod (sim/count_period.hpp) -- the period rule
// the count backend samples -- enumerated: the row of a count vector
// re-runs that period once per outcome, every binomial draw branching
// over its support instead of being sampled. Everything the simulators
// can only estimate is then a linear-algebra question on a sparse
// row-stochastic matrix:
//
//   * communicating classes (Tarjan SCC): exact recurrent / transient /
//     absorbing classification, upgrading the reach.* occupancy fixpoint
//     from "can mass ever get there" to "where does probability end up";
//   * absorption probabilities and expected hitting times from the seeded
//     start: one sparse Gauss-Seidel kernel over the transient block, with
//     every recurrent state pinned (to the unit vector of its class for
//     absorption, to 0 for the hitting time), no new deps;
//   * the stationary distribution of an ergodic chain, whose mean and
//     per-state count variance are compared against the mean-field fixed
//     point and the CLT prediction of core/fluctuations.* by the exact.*
//     rule family (analysis/exact_checks.hpp).
//
// The lattice is ranked, not searched: a count vector's index is its
// combinatorial rank in lexicographic order, O(S) from a table of
// C(r + k - 1, k - 1). Every kernel row is checked to sum to 1 within
// 1e-12 after duplicate outcomes fold, and every outcome to land on the
// lattice; a row that breaks either throws ExactChainKernelError, which
// the checks layer reports as an exact.kernel-invalid error finding. The
// bound is absolute: the registry's worst row is 2.7e-15 off at n = 48,
// while rounding over a row at the 4e6-outcome budget could in the worst
// case reach ~4e-10.
//
// Budgets: `max_states` caps the lattice; `max_row_branches` caps the
// outcome enumeration of a single kernel row (multi-action states branch
// per binomial support). Exceeding either throws ExactChainBudgetError,
// which the checks layer reports as an exact.state-budget finding instead
// of an answer -- the exact tier is for small N by design, the mean-field
// tier covers the rest. The iterative solves fail closed the same way: a
// solve that reaches its iteration cap without meeting its tolerance throws
// ExactChainSolveError (an exact.solve-failed error finding), never
// returning the unconverged iterate as a number.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/state_machine.hpp"
#include "numerics/vector.hpp"
#include "sim/runtime.hpp"

namespace deproto::analysis {

struct ExactChainOptions {
  /// Population size N (fixed: the exact chain is the fault-free regime,
  /// alive == N every period).
  std::size_t n = 32;
  /// Largest admissible count-vector lattice, C(n + S - 1, S - 1).
  std::size_t max_states = 20000;
  /// Largest outcome expansion while convolving one kernel row.
  std::size_t max_row_branches = 4000000;
  /// Per-connection-attempt failure probability f (RuntimeOptions).
  double message_loss = 0.0;
  /// Token routing mode/TTL, as in sim::CountSimOptions.
  sim::TokenRouting tokens;
};

/// The state space or a kernel row outgrew its budget; the chain cannot
/// be built at this (n, machine) within the configured limits.
class ExactChainBudgetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An iterative solve reached its iteration cap without meeting its
/// tolerance; whatever it holds is not an answer.
class ExactChainSolveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A kernel row broke an invariant the period rule guarantees: an
/// outcome left the lattice, or the folded row does not sum to 1 within
/// 1e-12. A defect in the enumeration, not a property of the machine.
class ExactChainKernelError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Sort one kernel row's raw (column, probability) outcomes by column,
/// fold duplicate columns (summed in the sort's order) and check the row
/// sums to 1 within 1e-12. Throws ExactChainKernelError naming `start`,
/// the count vector the row leaves from, when it does not.
void fold_kernel_row(std::vector<std::pair<std::uint32_t, double>>& row,
                     const std::vector<std::size_t>& start);

/// One communicating class of the chain (a strongly connected component
/// of the kernel's support digraph). `recurrent` means closed: no
/// transition leaves the class, so it traps probability forever.
struct CommunicatingClass {
  std::vector<std::size_t> members;  ///< chain-state indices, ascending
  bool recurrent = false;            ///< closed under the kernel
  bool absorbing = false;            ///< singleton with self-probability 1
};

class ExactChain {
 public:
  /// Enumerate the lattice and build the exact kernel. Throws
  /// ExactChainBudgetError when a budget is exceeded,
  /// std::invalid_argument on malformed options (n == 0, stateless
  /// machine, message_loss outside [0, 1]) and ExactChainKernelError
  /// when a kernel row leaves the lattice or does not sum to 1.
  ExactChain(const core::ProtocolStateMachine& machine,
             ExactChainOptions options);

  /// C(n + s - 1, s - 1): the lattice size before any budget is applied.
  /// Saturates at SIZE_MAX on overflow, so callers can compare against a
  /// budget without tripping UB.
  [[nodiscard]] static std::size_t state_space_size(std::size_t num_states,
                                                    std::size_t n);

  [[nodiscard]] const ExactChainOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::size_t num_chain_states() const noexcept {
    return states_.size();
  }
  /// Count vector of chain state `i` (one entry per machine state,
  /// summing to n). States are in lexicographic enumeration order.
  [[nodiscard]] const std::vector<std::size_t>& state(std::size_t i) const {
    return states_.at(i);
  }
  /// Chain-state index of a count vector (entries beyond the machine's
  /// states must be absent): its lexicographic rank, O(S). nullopt when
  /// the counts do not sum to n.
  [[nodiscard]] std::optional<std::size_t> index_of(
      const std::vector<std::size_t>& counts) const;
  /// The seeded start the api layer uses: counts[s] processes in state s,
  /// the unseeded remainder in state 0 (sim::Simulator::seed_states).
  /// Throws std::invalid_argument when the counts exceed n.
  [[nodiscard]] std::size_t seeded_index(
      const std::vector<std::size_t>& counts) const;

  /// One kernel row, sparse: (column, probability) with probabilities
  /// summing to 1 (the row-stochastic invariant the tests pin).
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, double>>& row(
      std::size_t i) const {
    return rows_.at(i);
  }

  /// Communicating classes in deterministic order (ascending smallest
  /// member), and the class index of each chain state.
  [[nodiscard]] const std::vector<CommunicatingClass>& classes()
      const noexcept {
    return classes_;
  }
  [[nodiscard]] std::size_t class_of(std::size_t state_index) const {
    return class_of_.at(state_index);
  }
  /// Indices into classes() of the recurrent ones, in classes() order.
  [[nodiscard]] std::vector<std::size_t> recurrent_classes() const;

  /// P(absorbed into classes()[k] | start), one entry per class index k
  /// (zero for transient classes). A recurrent start absorbs into its own
  /// class with probability 1. Sparse Gauss-Seidel on the transient
  /// block, all recurrent classes swept together with each recurrent
  /// state pinned to its class's unit vector; entries sum to 1 up to the
  /// solver tolerance (1e-12 per sweep). Throws ExactChainSolveError when
  /// 200000 sweeps do not meet it.
  [[nodiscard]] std::vector<double> absorption_probabilities(
      std::size_t start) const;

  /// Expected periods until the chain first enters any recurrent class,
  /// from `start` (0 when the start is already recurrent). The same
  /// Gauss-Seidel kernel with recurrent states pinned to 0 (tolerance
  /// 1e-10); throws ExactChainSolveError at the same sweep cap.
  [[nodiscard]] double expected_absorption_time(std::size_t start) const;

  /// Stationary distribution over all chain states, supported on the
  /// unique recurrent class. Throws std::logic_error when the chain has
  /// more than one recurrent class (no unique stationary distribution --
  /// use absorption_probabilities instead), and ExactChainSolveError when
  /// the power iteration does not converge within 500000 iterations.
  [[nodiscard]] std::vector<double> stationary_distribution() const;

  /// E[c_s] / n per machine state under a distribution over chain states.
  [[nodiscard]] num::Vec mean_fractions(
      const std::vector<double>& dist) const;
  /// Per-machine-state standard deviation of the population *count* under
  /// a distribution over chain states.
  [[nodiscard]] num::Vec count_stddev(const std::vector<double>& dist) const;

 private:
  void enumerate_states();
  void build_kernel(const core::ProtocolStateMachine& machine);
  void compute_classes();
  /// Gauss-Seidel on x(i) = (base + sum_{j != i} P(i,j) x(j)) / (1 - P(i,i))
  /// over the transient states, `width` right-hand sides at once. `x` is
  /// num_chain_states() x width, row-major; the recurrent rows hold the
  /// pinned boundary values and are never written. Throws
  /// ExactChainSolveError naming `what` at the sweep cap.
  void solve_transient(std::vector<double>& x, std::size_t width, double base,
                       double tol, const char* what) const;

  ExactChainOptions options_;
  std::size_t num_machine_states_ = 0;
  std::vector<std::vector<std::size_t>> states_;
  /// compositions_[(k - 1) * (n + 1) + r] = C(r + k - 1, k - 1), the
  /// number of count vectors over k states summing to r (k = 1..S).
  std::vector<std::size_t> compositions_;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows_;
  std::vector<CommunicatingClass> classes_;
  std::vector<std::size_t> class_of_;
  std::vector<std::size_t> transient_;  ///< non-recurrent states, ascending
};

}  // namespace deproto::analysis
