#include "analysis/exact_chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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
/// choice point and 1 per outcome.
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
        outcomes_.resize(path_.back().first);
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

  [[nodiscard]] double prob_at(std::size_t depth) const {
    return depth == 0 ? 1.0 : path_[depth - 1].prob;
  }

  void open(std::uint64_t trials, double p, std::size_t cap, double before) {
    binomial_pmf(trials, p, log_fact_, pmf_);
    charge(pmf_.size());
    const std::size_t first = outcomes_.size();
    for (std::size_t k = 0; k <= cap; ++k) {
      double mass = pmf_[k];
      if (k == cap) {
        for (std::size_t d = cap + 1; d <= trials; ++d) mass += pmf_[d];
      }
      if (mass != 0.0) outcomes_.emplace_back(k, mass);
    }
    path_.push_back(Choice{first, outcomes_.size(), first,
                           before * outcomes_[first].second});
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
  std::vector<double> pmf_;
  sim::CountTally tally_;  // probes and token traffic: unused here
};

}  // namespace

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
  // Lexicographic enumeration keeps states_ sorted, so index_of is a
  // binary search with no side table.
  std::vector<std::size_t> counts(num_machine_states_, 0);
  const auto fill = [&](auto&& self, std::size_t level,
                        std::size_t used) -> void {
    if (level + 1 == num_machine_states_) {
      counts[level] = options_.n - used;
      states_.push_back(counts);
      counts[level] = 0;
      return;
    }
    for (std::size_t c = 0; c + used <= options_.n; ++c) {
      counts[level] = c;
      self(self, level + 1, used + c);
    }
    counts[level] = 0;
  };
  states_.reserve(state_space_size(num_machine_states_, options_.n));
  fill(fill, 0, 0);
}

std::optional<std::size_t> ExactChain::index_of(
    const std::vector<std::size_t>& counts) const {
  if (counts.size() != num_machine_states_) return std::nullopt;
  const auto it = std::lower_bound(states_.begin(), states_.end(), counts);
  if (it == states_.end() || *it != counts) return std::nullopt;
  return static_cast<std::size_t>(it - states_.begin());
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
          row.emplace_back(static_cast<std::uint32_t>(*index_of(counts)),
                           prob);
        });

    // Fold duplicate outcomes and store the row sparse and sorted.
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
}

std::vector<std::size_t> ExactChain::recurrent_classes() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].recurrent) out.push_back(c);
  }
  return out;
}

std::vector<double> ExactChain::absorption_probabilities(
    std::size_t start) const {
  std::vector<double> result(classes_.size(), 0.0);
  if (classes_[class_of_.at(start)].recurrent) {
    result[class_of_[start]] = 1.0;
    return result;
  }
  const std::vector<std::size_t> recurrent = recurrent_classes();

  // Gauss-Seidel on u_k(i) = sum_j P(i,j) [j transient ? u_k(j) : 1{class
  // j == k}] over the transient block, all target classes swept together.
  // (I - Q) is a strictly substochastic M-matrix, so the sweeps converge.
  const std::size_t m = states_.size();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot(m, kNone);
  std::vector<std::size_t> transient;
  for (std::size_t v = 0; v < m; ++v) {
    if (!classes_[class_of_[v]].recurrent) {
      slot[v] = transient.size();
      transient.push_back(v);
    }
  }
  std::vector<std::vector<double>> u(
      transient.size(), std::vector<double>(recurrent.size(), 0.0));
  constexpr std::size_t kMaxSweeps = 200000;
  constexpr double kTol = 1e-12;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double worst = 0.0;
    for (std::size_t t = 0; t < transient.size(); ++t) {
      const std::size_t v = transient[t];
      double self = 0.0;
      std::vector<double> acc(recurrent.size(), 0.0);
      for (const auto& [w, prob] : rows_[v]) {
        if (w == v) {
          self = prob;
          continue;
        }
        if (slot[w] != kNone) {
          const std::vector<double>& uw = u[slot[w]];
          for (std::size_t k = 0; k < recurrent.size(); ++k) {
            acc[k] += prob * uw[k];
          }
        } else {
          for (std::size_t k = 0; k < recurrent.size(); ++k) {
            if (class_of_[w] == recurrent[k]) acc[k] += prob;
          }
        }
      }
      for (std::size_t k = 0; k < recurrent.size(); ++k) {
        const double next = acc[k] / (1.0 - self);
        worst = std::max(worst, std::abs(next - u[t][k]));
        u[t][k] = next;
      }
    }
    if (worst < kTol) break;
  }
  const std::vector<double>& us = u[slot[start]];
  for (std::size_t k = 0; k < recurrent.size(); ++k) {
    result[recurrent[k]] = us[k];
  }
  return result;
}

double ExactChain::expected_absorption_time(std::size_t start) const {
  if (classes_[class_of_.at(start)].recurrent) return 0.0;
  const std::size_t m = states_.size();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot(m, kNone);
  std::vector<std::size_t> transient;
  for (std::size_t v = 0; v < m; ++v) {
    if (!classes_[class_of_[v]].recurrent) {
      slot[v] = transient.size();
      transient.push_back(v);
    }
  }
  // Gauss-Seidel on t(i) = 1 + sum_{j transient} P(i,j) t(j).
  std::vector<double> t(transient.size(), 0.0);
  constexpr std::size_t kMaxSweeps = 200000;
  constexpr double kTol = 1e-10;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double worst = 0.0;
    for (std::size_t i = 0; i < transient.size(); ++i) {
      const std::size_t v = transient[i];
      double self = 0.0;
      double acc = 1.0;
      for (const auto& [w, prob] : rows_[v]) {
        if (w == v) {
          self = prob;
        } else if (slot[w] != kNone) {
          acc += prob * t[slot[w]];
        }
      }
      const double next = acc / (1.0 - self);
      worst = std::max(worst, std::abs(next - t[i]));
      t[i] = next;
    }
    if (worst < kTol) break;
  }
  return t[slot[start]];
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
  for (std::size_t iter = 0; iter < kMaxIters; ++iter) {
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
    if (delta < kTol) break;
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
