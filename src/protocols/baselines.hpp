#pragma once

// Baselines for the migratory-replication comparison:
//
//  * HandoffMigration -- the "simple solution" of Section 4.1.1: a holder
//    hands the object to another process and deletes it immediately. A
//    crash of a holder destroys a replica; without refresh the replica
//    population is a martingale-with-deaths and goes extinct.
//
//  * StaticReplication -- the static/reactive placement strategy the paper
//    argues against (Section 4.1): k replicas at fixed hosts, with reactive
//    repair after a detection delay. Repair needs a surviving copy, so a
//    burst that destroys all k replicas (massive failure or a targeted
//    attack) is unrecoverable; replicas also never migrate (no fairness,
//    fully traceable).

#include <cstddef>
#include <vector>

#include "sim/protocol.hpp"

namespace deproto::proto {

struct HandoffParams {
  double handoff_prob = 0.1;  // per-period probability a holder hands off
};

class HandoffMigration final : public sim::PeriodicProtocol {
 public:
  static constexpr std::size_t kIdle = 0;
  static constexpr std::size_t kHolder = 1;

  explicit HandoffMigration(HandoffParams params);

  [[nodiscard]] std::size_t num_states() const override { return 2; }

  void execute_period(sim::Group& group, sim::Rng& rng) override;

  /// Replicas destroyed because a holder crashed or the hand-off target was
  /// unreachable (crash-stop during transfer).
  [[nodiscard]] std::size_t replicas_lost() const noexcept { return lost_; }

 private:
  HandoffParams params_;
  std::size_t lost_ = 0;
  std::vector<sim::ProcessId> scratch_;
};

struct StaticReplicationParams {
  std::size_t replicas = 8;        // target replica count k
  std::size_t detection_delay = 5; // periods until a crash is detected
};

class StaticReplication final : public sim::PeriodicProtocol {
 public:
  static constexpr std::size_t kIdle = 0;
  static constexpr std::size_t kHolder = 1;

  explicit StaticReplication(StaticReplicationParams params);

  [[nodiscard]] std::size_t num_states() const override { return 2; }

  void execute_period(sim::Group& group, sim::Rng& rng) override;

  void on_crash(sim::ProcessId pid) override;

  /// True once every replica has been destroyed (repair impossible).
  [[nodiscard]] bool extinct(const sim::Group& group) const {
    return group.count(kHolder) == 0;
  }

  [[nodiscard]] std::size_t repairs_done() const noexcept { return repairs_; }

 private:
  StaticReplicationParams params_;
  std::size_t repairs_ = 0;
  std::size_t period_ = 0;
  std::vector<std::size_t> pending_repairs_;  // due periods
};

}  // namespace deproto::proto
