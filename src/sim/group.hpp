#pragma once

// The closed group G of N processes (system model of Section 1). Each
// process knows the maximal membership (it can address any of the N-1
// others); sampling therefore draws from all N ids, and contacts to crashed
// processes are simply fruitless. Per-state "bucket" indices give O(1)
// uniform selection of an alive member of a state, O(1) transitions, and
// O(1) population counts -- the operations every protocol period needs.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"

namespace deproto::sim {

using ProcessId = std::uint32_t;

/// The largest group a per-node backend can address: one ProcessId per
/// process.
inline constexpr std::uint64_t kMaxGroupSize =
    std::uint64_t{std::numeric_limits<ProcessId>::max()} + 1;

class Group {
 public:
  /// N processes, all alive, all in `initial_state`.
  Group(std::size_t n, std::size_t num_states, std::size_t initial_state = 0);

  [[nodiscard]] std::size_t size() const noexcept { return state_.size(); }
  [[nodiscard]] std::size_t num_states() const noexcept {
    return buckets_.size();
  }

  [[nodiscard]] bool alive(ProcessId pid) const { return alive_.at(pid) != 0; }
  [[nodiscard]] std::size_t state_of(ProcessId pid) const {
    return state_.at(pid);
  }
  /// state_of(pid) while alive; nullopt while crashed.
  [[nodiscard]] std::optional<std::size_t> live_state(ProcessId pid) const {
    if (!alive(pid)) return std::nullopt;
    return state_of(pid);
  }

  /// Number of *alive* processes in `state`.
  [[nodiscard]] std::size_t count(std::size_t state) const {
    return buckets_.at(state).size();
  }
  [[nodiscard]] std::size_t total_alive() const noexcept {
    return total_alive_;
  }

  /// All alive members of `state` (unordered). Valid until the next
  /// transition/crash/recover touching that state.
  [[nodiscard]] const std::vector<ProcessId>& members(std::size_t state) const {
    return buckets_.at(state);
  }

  /// Distribute initial states (Simulator::seed_states for every per-node
  /// backend): pids are dealt out in order, counts[s] of them to state s;
  /// a crashed pid uses up its slot but keeps its state. Throws
  /// std::invalid_argument on more counts than states or on counts
  /// summing past size().
  void seed_states(const std::vector<std::size_t>& counts);

  /// Move an alive process to `to_state`. Fires the transition observer.
  void transition(ProcessId pid, std::size_t to_state);

  /// Crash an alive process (keeps its last state for bookkeeping).
  void crash(ProcessId pid);

  /// Revive a crashed process into `state`.
  void recover(ProcessId pid, std::size_t state);

  /// Uniformly random *alive* member of `state`; throws if none.
  [[nodiscard]] ProcessId random_member(std::size_t state, Rng& rng) const;

  /// Uniformly random id from the maximal membership excluding `self`
  /// (the target may be crashed -- the caller models the fruitless contact).
  [[nodiscard]] ProcessId random_target(ProcessId self, Rng& rng) const;

  /// Crash `k` distinct processes chosen uniformly among the alive ones;
  /// returns the victims. Models the "massive failure" experiments.
  std::vector<ProcessId> crash_random_alive(std::size_t k, Rng& rng);

  /// Observer invoked on every transition(pid, from, to).
  using TransitionObserver =
      std::function<void(ProcessId, std::size_t, std::size_t)>;
  void set_transition_observer(TransitionObserver obs) {
    observer_ = std::move(obs);
  }

 private:
  void bucket_remove(ProcessId pid);
  void bucket_insert(ProcessId pid, std::size_t state);

  std::vector<std::uint8_t> state_;      // last known state per process
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> pos_;       // index within its bucket
  std::vector<std::vector<ProcessId>> buckets_;  // alive members per state
  std::size_t total_alive_ = 0;
  TransitionObserver observer_;
};

}  // namespace deproto::sim
