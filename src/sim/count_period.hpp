#pragma once

// The count-level period rule, written once: one fault-free period of a
// machine over a per-state count vector, as a fixed sequence of binomial
// draws against core::transition_channels at per-probe hit probabilities
// c_s / (N-1). Every random step goes through one caller-supplied
// draw(trials, p, cap), which must return min(Binomial(trials, p), cap).
// sim::CountSimulator samples it with Rng::binomial; analysis::ExactChain
// enumerates it, re-running the period once per outcome -- so the exact
// kernel is the simulator's period by construction. The rule, in order:
//   1. Jacobi sweep: every draw reads the period-start counts.
//   2. States in index order, each a stop-after-first-firing chain over
//      actions_of: a self-transition's firings leave the executor pool
//      (the per-node `break` semantics).
//   3. Token and push batches settle after the sweep against the stayers
//      (period-start members nothing moved yet): tokens first, then
//      pushes, each in queue order. The stayers clamp makes this order
//      observable.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "core/transition_model.hpp"
#include "numerics/vector.hpp"
#include "sim/runtime.hpp"

namespace deproto::sim {

/// The machine's transition channels at the count vector `start` of an
/// N = `n` membership: a probe draws uniformly from the N-1 other members,
/// so state s is hit with probability start[s] / (N-1) (dead targets are
/// fruitless; N < 2 hits nothing).
[[nodiscard]] inline std::vector<core::TransitionChannel> count_channels(
    const core::ProtocolStateMachine& machine,
    const std::vector<std::size_t>& start, std::size_t n, double loss) {
  num::Vec hit(start.size(), 0.0);
  if (n >= 2) {
    const double denom = static_cast<double>(n - 1);
    for (std::size_t s = 0; s < start.size(); ++s) {
      hit[s] = static_cast<double>(start[s]) / denom;
    }
  }
  return core::transition_channels(machine, hit, loss);
}

/// Side counters of a period: what the per-node backends would report as
/// probes and token traffic. The exact chain discards them.
struct CountTally {
  std::uint64_t probes = 0;
  TokenStats tokens;
};

class CountPeriod {
 public:
  /// `machine` over a maximal membership of `n`, with per-connection loss
  /// probability `loss` and token routing `tokens`.
  CountPeriod(core::ProtocolStateMachine machine, std::size_t n, double loss,
              TokenRouting tokens)
      : machine_(std::move(machine)), n_(n), loss_(loss), tokens_(tokens) {
    for (const core::Action& action : machine_.actions()) {
      layouts_.push_back(core::layout_of(action));
    }
  }
  // layouts_ views machine_'s actions, so a copy would dangle.
  CountPeriod(const CountPeriod&) = delete;
  CountPeriod& operator=(const CountPeriod&) = delete;

  [[nodiscard]] const core::ProtocolStateMachine& machine() const noexcept {
    return machine_;
  }

  /// One period from `start` under `channels` (count_channels at `start`).
  /// `draw(trials, p, cap)` returns min(Binomial(trials, p), cap);
  /// `moved(from, to, k)` reports each nonzero batch of k transitions.
  /// Returns the end-of-period counts (a buffer reused by the next run).
  template <class Draw, class Moved>
  const std::vector<std::size_t>& run(
      const std::vector<core::TransitionChannel>& channels,
      const std::vector<std::size_t>& start, Draw&& draw, Moved&& moved,
      CountTally& tally) {
    // Token hand-offs and push contacts land on the stayers: period-start
    // members nothing has moved yet (the Jacobi reading of the per-node
    // races).
    end_ = start;
    stayers_ = start;
    token_batches_.clear();
    push_batches_.clear();
    const auto move = [&](std::size_t from, std::size_t to, std::size_t k) {
      if (k == 0) return;
      stayers_[from] -= k;
      end_[from] -= k;
      end_[to] += k;
      moved(from, to, k);
    };

    for (std::size_t s = 0; s < start.size(); ++s) {
      std::size_t remaining = start[s];
      if (remaining == 0) continue;
      for (std::size_t idx : machine_.actions_of(s)) {
        const core::TransitionChannel& ch = channels[idx];
        const core::ActionLayout& l = layouts_[idx];
        tally.probes += static_cast<std::uint64_t>(remaining) * l.probes;
        if (ch.moves_executor) {
          const std::size_t fired = draw(remaining, ch.fire_prob, remaining);
          move(s, ch.to, fired);
          remaining -= fired;
        } else if (l.mover == core::Mover::Token) {
          const std::size_t generated =
              draw(remaining, ch.fire_prob, remaining);
          tally.tokens.generated += generated;
          if (generated > 0) token_batches_.push_back(Batch{idx, generated});
        } else {
          const auto contacts =
              static_cast<std::uint64_t>(remaining) * l.probes;
          if (contacts > 0) push_batches_.push_back(Batch{idx, contacts});
        }
        if (remaining == 0) break;
      }
    }

    for (const Batch& batch : token_batches_) {
      const core::TransitionChannel& ch = channels[batch.action];
      const std::size_t cap = std::min(batch.size, stayers_[ch.from]);
      // Directory hand-off drops a token only when the state is empty.
      const std::size_t delivered =
          tokens_.mode == TokenRouting::Mode::Directory
              ? cap
              : draw(batch.size, ttl_delivery_prob(start[ch.from]), cap);
      move(ch.from, ch.to, delivered);
      tally.tokens.delivered += delivered;
      tally.tokens.dropped += batch.size - delivered;
    }

    for (const Batch& batch : push_batches_) {
      if (n_ < 2) break;
      const core::TransitionChannel& ch = channels[batch.action];
      const std::size_t candidates = stayers_[ch.from];
      if (candidates == 0) continue;
      const std::size_t converted = draw(
          candidates,
          push_conversion_prob(layouts_[batch.action].coin_bias, batch.size),
          candidates);
      move(ch.from, ch.to, converted);
    }
    return end_;
  }

 private:
  /// A queued token or push action: its index and its tokens or contacts.
  struct Batch {
    std::size_t action;
    std::size_t size;
  };

  /// TTL-bounded random walk: each hop dies to loss with probability f,
  /// else lands on one of the `holders` token-state members w.p. c / N.
  [[nodiscard]] double ttl_delivery_prob(std::size_t holders) const {
    const double f = loss_;
    const double q = n_ > 0 ? static_cast<double>(holders) /
                                  static_cast<double>(n_)
                            : 0.0;
    double p_deliver = 0.0;
    double surviving = 1.0;
    for (unsigned hop = 0; hop < tokens_.ttl; ++hop) {
      p_deliver += surviving * (1.0 - f) * q;
      surviving *= (1.0 - f) * (1.0 - q);
    }
    return p_deliver;
  }

  /// P(one target converted) = 1 - (1 - (1-f) * coin / (N-1))^contacts:
  /// each contact picks one of the N-1 others uniformly, survives loss,
  /// and flips the conversion coin.
  [[nodiscard]] double push_conversion_prob(double coin_bias,
                                            std::uint64_t contacts) const {
    const double per_contact =
        (1.0 - loss_) * coin_bias / static_cast<double>(n_ - 1);
    return 1.0 - std::pow(1.0 - per_contact, static_cast<double>(contacts));
  }

  core::ProtocolStateMachine machine_;
  std::vector<core::ActionLayout> layouts_;  // per action, built once
  std::size_t n_;
  double loss_;
  TokenRouting tokens_;
  // Scratch reused across runs (the exact chain re-runs once per outcome).
  std::vector<std::size_t> stayers_;
  std::vector<std::size_t> end_;
  std::vector<Batch> token_batches_;
  std::vector<Batch> push_batches_;
};

}  // namespace deproto::sim
