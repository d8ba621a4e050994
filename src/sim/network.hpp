#pragma once

// Unreliable asynchronous network (system model, Section 1): messages
// experience random latency and may be dropped. Latency is expressed in
// protocol-period units.

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace deproto::sim {

struct NetworkOptions {
  double loss = 0.0;          // independent drop probability per message
  double latency_min = 0.02;  // uniform latency band, in periods
  double latency_max = 0.10;
};

class Network {
 public:
  Network(EventQueue& queue, Rng& rng, NetworkOptions options = {});

  /// Send a message: `on_deliver` runs after a random latency unless the
  /// message is dropped, in which case `on_lost` (if provided) runs at the
  /// same moment the delivery would have happened (a timeout surrogate).
  /// Returns false for a dropped message.
  bool send(Task on_deliver, Task on_lost = {});

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  EventQueue& queue_;
  Rng& rng_;
  NetworkOptions options_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace deproto::sim
