#include "sim/event_sim.hpp"

#include <optional>
#include <utility>

namespace deproto::sim {

EventSimulator::EventSimulator(std::size_t n,
                               core::ProtocolStateMachine machine,
                               std::uint64_t seed, EventSimOptions options)
    : AsyncRuntime(n, std::move(machine), seed, options.clock_drift,
                   options.tokens),
      network_(queue_, rng_, options.network) {}

void EventSimulator::send_push(ProcessId /*from*/, ProcessId to,
                               const core::ActionLayout& layout) {
  network_.send([this, to, from_state = layout.from, to_state = layout.to,
                 coin = layout.coin_bias] {
    push_arrived(to, from_state, to_state, coin);
  });
}

void EventSimulator::send_probe(ProcessId /*from*/, ProcessId to,
                                std::uint32_t wait) {
  // The reply carries the target's state at response time; a crashed
  // target never answers, which reads as a lost reply.
  network_.send(
      [this, wait, to] {
        const std::optional<std::size_t> remote = group_.live_state(to);
        if (!remote) {
          reply_arrived(wait, std::nullopt);
          return;
        }
        network_.send([this, wait, remote] { reply_arrived(wait, remote); },
                      [this, wait] { reply_arrived(wait, std::nullopt); });
      },
      [this, wait] { reply_arrived(wait, std::nullopt); });
}

bool EventSimulator::send_token(ProcessId /*from*/, ProcessId to,
                                std::size_t token_state, std::size_t to_state,
                                unsigned hops_left) {
  return network_.send([this, to, token_state, to_state, hops_left] {
    token_arrived(to, token_state, to_state, hops_left);
  });
}

}  // namespace deproto::sim
