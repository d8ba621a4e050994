#include "sim/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace deproto::sim {

MetricsCollector::MetricsCollector(std::size_t num_states)
    : states_(num_states) {
  if (num_states == 0) {
    throw std::invalid_argument("MetricsCollector: zero states");
  }
  current_.transitions.assign(states_ * states_, 0);
}

void MetricsCollector::begin_period(double t) {
  current_.time = t;
  std::fill(current_.transitions.begin(), current_.transitions.end(), 0);
  in_period_ = true;
}

void MetricsCollector::record_transition(std::size_t from, std::size_t to) {
  if (from >= states_ || to >= states_) {
    throw std::out_of_range("MetricsCollector::record_transition");
  }
  ++current_.transitions[from * states_ + to];
}

void MetricsCollector::record_transitions(std::size_t from, std::size_t to,
                                          std::size_t count) {
  if (from >= states_ || to >= states_) {
    throw std::out_of_range("MetricsCollector::record_transitions");
  }
  current_.transitions[from * states_ + to] += count;
}

void MetricsCollector::end_period(const Group& group) {
  if (!in_period_) {
    throw std::logic_error("MetricsCollector::end_period without begin");
  }
  current_.alive_in_state.assign(states_, 0);
  for (std::size_t s = 0; s < states_; ++s) {
    current_.alive_in_state[s] = group.count(s);
  }
  current_.total_alive = group.total_alive();
  samples_.push_back(current_);
  in_period_ = false;
}

void MetricsCollector::end_period(
    const std::vector<std::size_t>& alive_in_state, std::size_t total_alive) {
  if (!in_period_) {
    throw std::logic_error("MetricsCollector::end_period without begin");
  }
  if (alive_in_state.size() != states_) {
    throw std::invalid_argument("MetricsCollector::end_period: bad counts");
  }
  current_.alive_in_state = alive_in_state;
  current_.total_alive = total_alive;
  samples_.push_back(current_);
  in_period_ = false;
}

namespace {

/// Summary statistics over a value window (consumes and sorts the vector):
/// the shared implementation behind summarize_state / summarize_flux.
WindowSummary summarize_window(std::vector<double> values) {
  WindowSummary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  const std::size_t n = values.size();
  s.median = (n % 2 == 1) ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(n);
  return s;
}

}  // namespace

WindowSummary MetricsCollector::summarize_state(std::size_t state,
                                                std::size_t first,
                                                std::size_t last) const {
  if (state >= states_) {
    throw std::out_of_range("MetricsCollector::summarize_state");
  }
  last = std::min(last, samples_.size());
  std::vector<double> values;
  for (std::size_t i = first; i < last; ++i) {
    values.push_back(static_cast<double>(samples_[i].alive_in_state[state]));
  }
  return summarize_window(std::move(values));
}

WindowSummary MetricsCollector::summarize_flux(std::size_t from,
                                               std::size_t to,
                                               std::size_t first,
                                               std::size_t last) const {
  if (from >= states_ || to >= states_) {
    throw std::out_of_range("MetricsCollector::summarize_flux");
  }
  last = std::min(last, samples_.size());
  std::vector<double> values;
  for (std::size_t i = first; i < last; ++i) {
    values.push_back(
        static_cast<double>(samples_[i].transitions[from * states_ + to]));
  }
  return summarize_window(std::move(values));
}

}  // namespace deproto::sim
