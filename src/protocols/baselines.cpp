#include "protocols/baselines.hpp"

#include <algorithm>
#include <stdexcept>

namespace deproto::proto {

HandoffMigration::HandoffMigration(HandoffParams params) : params_(params) {
  if (!(params_.handoff_prob > 0.0 && params_.handoff_prob <= 1.0)) {
    throw std::invalid_argument("HandoffMigration: bad handoff probability");
  }
}

void HandoffMigration::execute_period(sim::Group& group, sim::Rng& rng) {
  scratch_ = group.members(kHolder);
  for (sim::ProcessId pid : scratch_) {
    if (!group.alive(pid) || group.state_of(pid) != kHolder) continue;
    if (!rng.bernoulli(params_.handoff_prob)) continue;
    // Hand the object to a random target and delete the local copy
    // immediately (the flawed step: no overlap between copies).
    const sim::ProcessId target = group.random_target(pid, rng);
    group.transition(pid, kIdle);
    if (!group.alive(target)) {
      ++lost_;  // transfer to a crashed host: the replica is gone
    } else if (group.state_of(target) == kHolder) {
      ++lost_;  // two copies merged into one holder
    } else {
      group.transition(target, kHolder);
    }
  }
}

StaticReplication::StaticReplication(StaticReplicationParams params)
    : params_(params) {
  if (params_.replicas == 0) {
    throw std::invalid_argument("StaticReplication: need >= 1 replica");
  }
}

void StaticReplication::on_crash(sim::ProcessId /*pid*/) {
  // The crash of a holder is noticed `detection_delay` periods later; the
  // pending repair clones from any surviving replica.
  pending_repairs_.push_back(period_ + params_.detection_delay);
}

void StaticReplication::execute_period(sim::Group& group, sim::Rng& rng) {
  ++period_;
  // Note: on_crash fires for *any* crash, holder or not; over-counting is
  // resolved here by only repairing up to the target count.
  auto due = std::partition(pending_repairs_.begin(), pending_repairs_.end(),
                            [&](std::size_t t) { return t > period_; });
  const auto n_due = static_cast<std::size_t>(
      std::distance(due, pending_repairs_.end()));
  pending_repairs_.erase(due, pending_repairs_.end());

  if (group.count(kHolder) == 0) return;  // extinct: nothing left to clone

  for (std::size_t k = 0; k < n_due; ++k) {
    if (group.count(kHolder) >= params_.replicas) break;
    if (group.count(kIdle) == 0) break;
    group.transition(group.random_member(kIdle, rng), kHolder);
    ++repairs_;
  }
}

}  // namespace deproto::proto
