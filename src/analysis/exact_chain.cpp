#include "analysis/exact_chain.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/count_period.hpp"

namespace deproto::analysis {

namespace {

/// Binomial pmf over 0..n into `pmf`, with the same degenerate clamps as
/// Rng::binomial: p <= 0 puts all mass at 0, p >= 1 all mass at n.
/// Computed in log space (protects q^n from underflow at p near 1) and
/// normalized, so the masses sum to 1 to machine precision.
void binomial_pmf(std::size_t n, double p, const std::vector<double>& log_fact,
                  std::vector<double>& pmf) {
  pmf.assign(n + 1, 0.0);
  if (n == 0 || p <= 0.0) {
    pmf[0] = 1.0;
    return;
  }
  if (p >= 1.0) {
    pmf[n] = 1.0;
    return;
  }
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double total = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    const double log_mass = log_fact[n] - log_fact[k] - log_fact[n - k] +
                            static_cast<double>(k) * log_p +
                            static_cast<double>(n - k) * log_q;
    pmf[k] = std::exp(log_mass);
    total += pmf[k];
  }
  for (double& mass : pmf) mass /= total;
}

/// One kernel row: sim::CountPeriod::run re-run once per outcome,
/// depth-first over its draws. Each draw is a choice point over its
/// binomial's support -- zero masses dropped, the clamped tail > cap
/// merged into cap -- and a re-run replays the chosen prefix, opening a
/// new choice point at its first outcome past it. Outcomes therefore come
/// out in ascending-draw depth-first order, each with its probability
/// multiplied root to leaf. `max_row_branches` is charged the pmf size per
/// choice point and 1 per outcome. A row re-opens the same draw on many
/// branches, so each distinct (trials, p, cap) builds its support once per
/// row: the memo holds it in outcomes_, which is cleared with the row.
class RowEnumerator {
 public:
  RowEnumerator(sim::CountPeriod& period, const std::vector<double>& log_fact,
                std::size_t max_row_branches)
      : period_(period), log_fact_(log_fact), budget_(max_row_branches) {}

  /// Calls leaf(end_counts, probability) once per outcome of the period.
  template <class Leaf>
  void run(const std::vector<core::TransitionChannel>& channels,
           const std::vector<std::size_t>& start, Leaf&& leaf) {
    path_.clear();
    outcomes_.clear();
    memo_.clear();
    branches_ = 0;
    std::size_t depth = 0;
    const auto draw = [&](std::uint64_t trials, double p,
                          std::size_t cap) -> std::size_t {
      if (depth == path_.size()) open(trials, p, cap, prob_at(depth));
      return outcomes_[path_[depth++].at].first;
    };
    const auto ignore = [](std::size_t, std::size_t, std::size_t) {};
    for (;;) {
      depth = 0;
      const std::vector<std::size_t>& counts =
          period_.run(channels, start, draw, ignore, tally_);
      charge(1);
      leaf(counts, prob_at(path_.size()));
      while (!path_.empty() && path_.back().at + 1 == path_.back().end) {
        path_.pop_back();
      }
      if (path_.empty()) return;
      Choice& last = path_.back();
      ++last.at;
      last.prob = prob_at(path_.size() - 1) * outcomes_[last.at].second;
    }
  }

 private:
  /// One open draw: its outcomes are outcomes_[first, end), the current
  /// one is `at`, and `prob` is the path's probability through it.
  struct Choice {
    std::size_t first;
    std::size_t end;
    std::size_t at;
    double prob;
  };

  /// A draw's identity: p by bit pattern, so a hit replays exactly the
  /// support a miss would compute.
  struct Draw {
    std::uint64_t trials;
    std::uint64_t p_bits;
    std::size_t cap;

    friend bool operator==(const Draw&, const Draw&) = default;
  };
  struct DrawHash {
    std::size_t operator()(const Draw& d) const noexcept {
      std::uint64_t h = d.p_bits;
      h ^= d.trials + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= d.cap + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  [[nodiscard]] double prob_at(std::size_t depth) const {
    return depth == 0 ? 1.0 : path_[depth - 1].prob;
  }

  void open(std::uint64_t trials, double p, std::size_t cap, double before) {
    charge(trials + 1);  // the pmf's size, paid on hits too
    const auto [it, miss] = memo_.try_emplace(
        Draw{trials, std::bit_cast<std::uint64_t>(p), cap});
    if (miss) {
      binomial_pmf(trials, p, log_fact_, pmf_);
      it->second.first = outcomes_.size();
      for (std::size_t k = 0; k <= cap; ++k) {
        double mass = pmf_[k];
        if (k == cap) {
          for (std::size_t d = cap + 1; d <= trials; ++d) mass += pmf_[d];
        }
        if (mass != 0.0) outcomes_.emplace_back(k, mass);
      }
      it->second.second = outcomes_.size();
    }
    const auto [first, end] = it->second;
    path_.push_back(
        Choice{first, end, first, before * outcomes_[first].second});
  }

  void charge(std::size_t cost) {
    branches_ += cost;
    if (branches_ > budget_) {
      throw ExactChainBudgetError(
          "ExactChain: kernel row outcome expansion exceeds max_row_branches "
          "(" +
          std::to_string(budget_) + ")");
    }
  }

  sim::CountPeriod& period_;
  const std::vector<double>& log_fact_;
  std::size_t budget_;
  std::size_t branches_ = 0;
  std::vector<Choice> path_;
  std::vector<std::pair<std::size_t, double>> outcomes_;  // (draw, mass)
  std::unordered_map<Draw, std::pair<std::size_t, std::size_t>, DrawHash>
      memo_;  // draw -> its outcomes_[first, end)
  std::vector<double> pmf_;
  sim::CountTally tally_;  // probes and token traffic: unused here
};

/// One Gauss-Seidel sweep of ExactChain::solve_transient at compile-time
/// width W (W == 0: the runtime `width`). Returns the largest change of
/// any entry. A compile-time W keeps a row's accumulators in registers;
/// through memory one latency-bound add chain per right-hand side runs
/// about 3x slower.
template <std::size_t W>
double sweep_transient(
    const std::vector<std::vector<std::pair<std::uint32_t, double>>>& rows,
    const std::vector<std::size_t>& transient, std::size_t width, double base,
    std::vector<double>& x) {
  const std::size_t k_end = W != 0 ? W : width;
  std::array<double, W != 0 ? W : 1> fixed{};
  std::vector<double> dynamic(W != 0 ? 0 : width);
  double* const acc = W != 0 ? fixed.data() : dynamic.data();
  double* const xs = x.data();
  double worst = 0.0;
  for (const std::size_t v : transient) {
    double self = 0.0;
    for (std::size_t k = 0; k < k_end; ++k) acc[k] = base;
    for (const auto& [w, prob] : rows[v]) {
      if (w == v) {
        self = prob;
        continue;
      }
      const double* const xw = xs + static_cast<std::size_t>(w) * k_end;
      for (std::size_t k = 0; k < k_end; ++k) acc[k] += prob * xw[k];
    }
    double* const xv = xs + v * k_end;
    for (std::size_t k = 0; k < k_end; ++k) {
      const double next = acc[k] / (1.0 - self);
      worst = std::max(worst, std::abs(next - xv[k]));
      xv[k] = next;
    }
  }
  return worst;
}

/// "A solve did not converge" text: %g keeps a 1e-12 tolerance legible.
std::string unconverged(const std::string& solve, double tol,
                        std::size_t cap, const char* steps) {
  char tol_text[32];
  std::snprintf(tol_text, sizeof(tol_text), "%g", tol);
  return "ExactChain: " + solve + " did not converge to " + tol_text +
         " within " + std::to_string(cap) + " " + steps;
}

std::string count_vector(const std::vector<std::size_t>& counts) {
  std::string out = "(";
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (s != 0) out += ", ";
    out += std::to_string(counts[s]);
  }
  return out + ")";
}

}  // namespace

void fold_kernel_row(std::vector<std::pair<std::uint32_t, double>>& row,
                     const std::vector<std::size_t>& start) {
  // std::sort, not a stable sort: its order decides which duplicates add
  // first, and the pinned exact-lint digests hold those bytes.
  std::sort(row.begin(), row.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t write = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (write > 0 && row[write - 1].first == row[i].first) {
      row[write - 1].second += row[i].second;
    } else {
      row[write++] = row[i];
    }
  }
  row.resize(write);

  double total = 0.0;
  for (const auto& entry : row) total += entry.second;
  if (!(std::abs(total - 1.0) <= 1e-12)) {
    char sum_text[32];
    std::snprintf(sum_text, sizeof(sum_text), "%.17g", total);
    throw ExactChainKernelError("ExactChain: kernel row of " +
                                count_vector(start) + " sums to " + sum_text +
                                ", not 1");
  }
}

std::size_t ExactChain::state_space_size(std::size_t num_states,
                                         std::size_t n) {
  if (num_states == 0) return 0;
  // C(n + k, k) built by the exact integer recurrence r <- r*(n+k)/k,
  // saturating instead of overflowing -- in n + k as well as in r.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (n > kMax - (num_states - 1)) return kMax;
  std::size_t result = 1;
  for (std::size_t k = 1; k + 1 <= num_states; ++k) {
    if (result > kMax / (n + k)) return kMax;
    result = result * (n + k) / k;
  }
  return result;
}

ExactChain::ExactChain(const core::ProtocolStateMachine& machine,
                       ExactChainOptions options)
    : options_(options), num_machine_states_(machine.num_states()) {
  if (options_.n == 0) {
    throw std::invalid_argument("ExactChain: n == 0");
  }
  if (num_machine_states_ == 0) {
    throw std::invalid_argument("ExactChain: machine has no states");
  }
  if (!(options_.message_loss >= 0.0 && options_.message_loss <= 1.0)) {
    throw std::invalid_argument("ExactChain: bad message_loss");
  }
  const std::size_t lattice =
      state_space_size(num_machine_states_, options_.n);
  if (lattice > options_.max_states) {
    throw ExactChainBudgetError(
        "ExactChain: count-vector lattice has " + std::to_string(lattice) +
        " states, exceeding max_states (" +
        std::to_string(options_.max_states) + ")");
  }
  enumerate_states();
  build_kernel(machine);
  compute_classes();
}

void ExactChain::enumerate_states() {
  // Lexicographic enumeration: the index of a count vector is its rank,
  // counted from the composition table below.
  const std::size_t n = options_.n;
  compositions_.assign(num_machine_states_ * (n + 1), 0);
  for (std::size_t r = 0; r <= n; ++r) compositions_[r] = 1;
  for (std::size_t k = 2; k <= num_machine_states_; ++k) {
    std::size_t* const row = &compositions_[(k - 1) * (n + 1)];
    const std::size_t* const fewer = row - (n + 1);
    row[0] = 1;
    for (std::size_t r = 1; r <= n; ++r) row[r] = fewer[r] + row[r - 1];
  }

  std::vector<std::size_t> counts(num_machine_states_, 0);
  const auto fill = [&](auto&& self, std::size_t level,
                        std::size_t used) -> void {
    if (level + 1 == num_machine_states_) {
      counts[level] = n - used;
      states_.push_back(counts);
      counts[level] = 0;
      return;
    }
    for (std::size_t c = 0; c + used <= n; ++c) {
      counts[level] = c;
      self(self, level + 1, used + c);
    }
    counts[level] = 0;
  };
  states_.reserve(state_space_size(num_machine_states_, n));
  fill(fill, 0, 0);
}

std::optional<std::size_t> ExactChain::index_of(
    const std::vector<std::size_t>& counts) const {
  if (counts.size() != num_machine_states_) return std::nullopt;
  // The lexicographic rank: at each position s with `left` processes
  // still to place, count the vectors with a smaller entry there,
  // sum_{c < counts[s]} C(left - c + k - 2, k - 2) over the k = S - s
  // states left -- by the hockey-stick identity, C(left + k - 1, k - 1)
  // minus C(left - counts[s] + k - 1, k - 1).
  const std::size_t stride = options_.n + 1;
  std::size_t left = options_.n;
  std::size_t index = 0;
  for (std::size_t s = 0; s + 1 < num_machine_states_; ++s) {
    if (counts[s] > left) return std::nullopt;
    const std::size_t* const k_states =
        &compositions_[(num_machine_states_ - s - 1) * stride];
    index += k_states[left] - k_states[left - counts[s]];
    left -= counts[s];
  }
  if (counts.back() != left) return std::nullopt;
  return index;
}

std::size_t ExactChain::seeded_index(
    const std::vector<std::size_t>& counts) const {
  if (counts.size() > num_machine_states_) {
    throw std::invalid_argument("ExactChain::seeded_index: too many states");
  }
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  if (total > options_.n) {
    throw std::invalid_argument(
        "ExactChain::seeded_index: counts exceed population");
  }
  std::vector<std::size_t> full(num_machine_states_, 0);
  for (std::size_t s = 0; s < counts.size(); ++s) full[s] = counts[s];
  full[0] += options_.n - total;
  return *index_of(full);
}

void ExactChain::build_kernel(const core::ProtocolStateMachine& machine) {
  std::vector<double> log_fact(options_.n + 1, 0.0);
  for (std::size_t k = 2; k <= options_.n; ++k) {
    log_fact[k] = log_fact[k - 1] + std::log(static_cast<double>(k));
  }
  sim::CountPeriod period(machine, options_.n, options_.message_loss,
                          options_.tokens);
  RowEnumerator enumerator(period, log_fact, options_.max_row_branches);
  rows_.resize(states_.size());
  for (std::size_t r = 0; r < states_.size(); ++r) {
    const std::vector<std::size_t>& start = states_[r];
    std::vector<std::pair<std::uint32_t, double>>& row = rows_[r];
    row.clear();
    enumerator.run(
        sim::count_channels(machine, start, options_.n,
                            options_.message_loss),
        start, [&](const std::vector<std::size_t>& counts, double prob) {
          const std::optional<std::size_t> column = index_of(counts);
          if (!column) {
            throw ExactChainKernelError(
                "ExactChain: the period from " + count_vector(start) +
                " left the lattice at " + count_vector(counts));
          }
          row.emplace_back(static_cast<std::uint32_t>(*column), prob);
        });

    fold_kernel_row(row, start);
  }
}

void ExactChain::compute_classes() {
  // Iterative Tarjan over the kernel's support digraph.
  const std::size_t m = states_.size();
  constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> index(m, kUnset);
  std::vector<std::size_t> lowlink(m, 0);
  std::vector<bool> on_stack(m, false);
  std::vector<std::size_t> stack;
  std::vector<std::size_t> scc_of(m, kUnset);
  std::size_t next_index = 0;
  std::size_t num_sccs = 0;

  struct Frame {
    std::size_t v;
    std::size_t edge;
  };
  std::vector<Frame> frames;
  for (std::size_t root = 0; root < m; ++root) {
    if (index[root] != kUnset) continue;
    frames.push_back(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const std::size_t v = fr.v;
      if (fr.edge < rows_[v].size()) {
        const std::size_t w = rows_[v][fr.edge].first;
        ++fr.edge;
        if (index[w] == kUnset) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        for (;;) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc_of[w] = num_sccs;
          if (w == v) break;
        }
        ++num_sccs;
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
      }
    }
  }

  std::vector<CommunicatingClass> raw(num_sccs);
  std::vector<bool> closed(num_sccs, true);
  for (std::size_t v = 0; v < m; ++v) {
    raw[scc_of[v]].members.push_back(v);
    for (const auto& [w, prob] : rows_[v]) {
      (void)prob;
      if (scc_of[w] != scc_of[v]) closed[scc_of[v]] = false;
    }
  }
  for (std::size_t c = 0; c < num_sccs; ++c) {
    std::sort(raw[c].members.begin(), raw[c].members.end());
    raw[c].recurrent = closed[c];
    raw[c].absorbing = closed[c] && raw[c].members.size() == 1;
  }
  std::sort(raw.begin(), raw.end(),
            [](const CommunicatingClass& a, const CommunicatingClass& b) {
              return a.members.front() < b.members.front();
            });
  classes_ = std::move(raw);
  class_of_.assign(m, 0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    for (const std::size_t v : classes_[c].members) class_of_[v] = c;
  }
  transient_.clear();
  for (std::size_t v = 0; v < m; ++v) {
    if (!classes_[class_of_[v]].recurrent) transient_.push_back(v);
  }
}

std::vector<std::size_t> ExactChain::recurrent_classes() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].recurrent) out.push_back(c);
  }
  return out;
}

void ExactChain::solve_transient(std::vector<double>& x, std::size_t width,
                                 double base, double tol,
                                 const char* what) const {
  // (I - Q) is a strictly substochastic M-matrix, so the sweeps converge;
  // the cap only stops a chain too slow to meet `tol` in time. A pinned
  // recurrent entry adds prob * 1.0 == prob or prob * 0.0 to an
  // accumulator that is >= +0, so pinning moves no bit against skipping.
  constexpr std::size_t kMaxSweeps = 200000;
  // Width 1 is every hitting-time solve and a single recurrent class
  // (endemic), width 3 the LV-majority chains; nothing else the registry
  // builds takes measurable time.
  const auto sweep = [&] {
    switch (width) {
      case 1:
        return sweep_transient<1>(rows_, transient_, width, base, x);
      case 3:
        return sweep_transient<3>(rows_, transient_, width, base, x);
      default:
        return sweep_transient<0>(rows_, transient_, width, base, x);
    }
  };
  for (std::size_t s = 0; s < kMaxSweeps; ++s) {
    if (sweep() < tol) return;
  }
  throw ExactChainSolveError(unconverged(std::string(what) + " solve", tol,
                                         kMaxSweeps, "Gauss-Seidel sweeps"));
}

std::vector<double> ExactChain::absorption_probabilities(
    std::size_t start) const {
  std::vector<double> result(classes_.size(), 0.0);
  if (classes_[class_of_.at(start)].recurrent) {
    result[class_of_[start]] = 1.0;
    return result;
  }
  // u_k(i) = sum_j P(i,j) u_k(j), every target class swept together; a
  // state of recurrent class recurrent[k] is pinned to e_k.
  const std::vector<std::size_t> recurrent = recurrent_classes();
  const std::size_t width = recurrent.size();
  std::vector<double> u(states_.size() * width, 0.0);
  for (std::size_t k = 0; k < width; ++k) {
    for (const std::size_t v : classes_[recurrent[k]].members) {
      u[v * width + k] = 1.0;
    }
  }
  solve_transient(u, width, 0.0, 1e-12, "absorption");
  for (std::size_t k = 0; k < width; ++k) {
    result[recurrent[k]] = u[start * width + k];
  }
  return result;
}

double ExactChain::expected_absorption_time(std::size_t start) const {
  if (classes_[class_of_.at(start)].recurrent) return 0.0;
  // t(i) = 1 + sum_j P(i,j) t(j), recurrent states pinned to 0.
  std::vector<double> t(states_.size(), 0.0);
  solve_transient(t, 1, 1.0, 1e-10, "hitting-time");
  return t[start];
}

std::vector<double> ExactChain::stationary_distribution() const {
  const std::vector<std::size_t> recurrent = recurrent_classes();
  if (recurrent.size() != 1) {
    throw std::logic_error(
        "ExactChain::stationary_distribution: chain has " +
        std::to_string(recurrent.size()) +
        " recurrent classes; the stationary distribution is not unique");
  }
  const std::vector<std::size_t>& members = classes_[recurrent[0]].members;
  const std::size_t m = states_.size();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot(m, kNone);
  for (std::size_t i = 0; i < members.size(); ++i) slot[members[i]] = i;

  // Damped power iteration pi <- (pi + pi P) / 2: the averaging kills any
  // periodicity (deterministic coin_bias == 1 cycles are legal machines)
  // while preserving the fixed point.
  std::vector<double> pi(members.size(),
                         1.0 / static_cast<double>(members.size()));
  std::vector<double> next(members.size(), 0.0);
  constexpr std::size_t kMaxIters = 500000;
  constexpr double kTol = 1e-13;
  bool converged = false;
  for (std::size_t iter = 0; iter < kMaxIters && !converged; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const double mass = pi[i];
      if (mass == 0.0) continue;
      for (const auto& [w, prob] : rows_[members[i]]) {
        next[slot[w]] += mass * prob;
      }
    }
    double delta = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      next[i] = 0.5 * (next[i] + pi[i]);
      total += next[i];
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      next[i] /= total;
      delta += std::abs(next[i] - pi[i]);
    }
    pi.swap(next);
    converged = delta < kTol;
  }
  if (!converged) {
    throw ExactChainSolveError(unconverged("stationary power iteration",
                                           kTol, kMaxIters, "iterations"));
  }
  std::vector<double> dist(m, 0.0);
  for (std::size_t i = 0; i < members.size(); ++i) dist[members[i]] = pi[i];
  return dist;
}

num::Vec ExactChain::mean_fractions(const std::vector<double>& dist) const {
  num::Vec mean(num_machine_states_, 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (dist[i] == 0.0) continue;
    for (std::size_t s = 0; s < num_machine_states_; ++s) {
      mean[s] += dist[i] * static_cast<double>(states_[i][s]);
    }
  }
  for (std::size_t s = 0; s < num_machine_states_; ++s) {
    mean[s] /= static_cast<double>(options_.n);
  }
  return mean;
}

num::Vec ExactChain::count_stddev(const std::vector<double>& dist) const {
  num::Vec mean(num_machine_states_, 0.0);
  num::Vec second(num_machine_states_, 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (dist[i] == 0.0) continue;
    for (std::size_t s = 0; s < num_machine_states_; ++s) {
      const auto c = static_cast<double>(states_[i][s]);
      mean[s] += dist[i] * c;
      second[s] += dist[i] * c * c;
    }
  }
  num::Vec stddev(num_machine_states_, 0.0);
  for (std::size_t s = 0; s < num_machine_states_; ++s) {
    stddev[s] = std::sqrt(std::max(0.0, second[s] - mean[s] * mean[s]));
  }
  return stddev;
}

}  // namespace deproto::analysis
