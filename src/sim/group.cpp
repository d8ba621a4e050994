#include "sim/group.hpp"

namespace deproto::sim {

Group::Group(std::size_t n, std::size_t num_states,
             std::size_t initial_state) {
  if (n == 0) throw std::invalid_argument("Group: empty group");
  if (num_states == 0 || num_states > 255) {
    throw std::invalid_argument("Group: need 1..255 states");
  }
  if (initial_state >= num_states) {
    throw std::invalid_argument("Group: bad initial state");
  }
  state_.assign(n, static_cast<std::uint8_t>(initial_state));
  alive_.assign(n, 1);
  pos_.resize(n);
  buckets_.resize(num_states);
  buckets_[initial_state].reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    pos_[pid] = static_cast<std::uint32_t>(buckets_[initial_state].size());
    buckets_[initial_state].push_back(pid);
  }
  total_alive_ = n;
}

void Group::bucket_remove(ProcessId pid) {
  auto& bucket = buckets_[state_[pid]];
  const std::uint32_t at = pos_[pid];
  const ProcessId last = bucket.back();
  bucket[at] = last;
  pos_[last] = at;
  bucket.pop_back();
}

void Group::bucket_insert(ProcessId pid, std::size_t state) {
  auto& bucket = buckets_[state];
  pos_[pid] = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(pid);
  state_[pid] = static_cast<std::uint8_t>(state);
}

void Group::seed_states(const std::vector<std::size_t>& counts) {
  if (counts.size() > num_states()) {
    throw std::invalid_argument("seed_states: too many states");
  }
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total > size()) {
    throw std::invalid_argument("seed_states: counts exceed group size");
  }
  ProcessId pid = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    for (std::size_t k = 0; k < counts[s]; ++k, ++pid) {
      if (alive(pid)) transition(pid, s);
    }
  }
}

void Group::transition(ProcessId pid, std::size_t to_state) {
  if (!alive(pid)) {
    throw std::logic_error("Group::transition: process is crashed");
  }
  if (to_state >= buckets_.size()) {
    throw std::out_of_range("Group::transition: bad state");
  }
  const std::size_t from = state_[pid];
  if (from == to_state) return;
  bucket_remove(pid);
  bucket_insert(pid, to_state);
  if (observer_) observer_(pid, from, to_state);
}

void Group::crash(ProcessId pid) {
  if (!alive(pid)) return;
  bucket_remove(pid);
  alive_[pid] = 0;
  --total_alive_;
}

void Group::recover(ProcessId pid, std::size_t state) {
  if (alive(pid)) {
    throw std::logic_error("Group::recover: process is alive");
  }
  if (state >= buckets_.size()) {
    throw std::out_of_range("Group::recover: bad state");
  }
  alive_[pid] = 1;
  ++total_alive_;
  bucket_insert(pid, state);
}

ProcessId Group::random_member(std::size_t state, Rng& rng) const {
  const auto& bucket = buckets_.at(state);
  if (bucket.empty()) {
    throw std::logic_error("Group::random_member: state is empty");
  }
  return bucket[rng.uniform_int(bucket.size())];
}

ProcessId Group::random_target(ProcessId self, Rng& rng) const {
  return static_cast<ProcessId>(rng.uniform_int_excluding(size(), self));
}

std::vector<ProcessId> Group::crash_random_alive(std::size_t k, Rng& rng) {
  // Gather alive pids (bucket order is arbitrary but deterministic).
  std::vector<ProcessId> alive_pids;
  alive_pids.reserve(total_alive_);
  for (const auto& bucket : buckets_) {
    alive_pids.insert(alive_pids.end(), bucket.begin(), bucket.end());
  }
  if (k > alive_pids.size()) k = alive_pids.size();
  std::vector<ProcessId> victims;
  victims.reserve(k);
  for (std::uint64_t idx : rng.sample_without_replacement(alive_pids.size(), k)) {
    victims.push_back(alive_pids[idx]);
  }
  for (ProcessId pid : victims) crash(pid);
  return victims;
}

}  // namespace deproto::sim
