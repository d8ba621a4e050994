#include "sim/network.hpp"

#include <stdexcept>

namespace deproto::sim {

Network::Network(EventQueue& queue, Rng& rng, NetworkOptions options)
    : queue_(queue), rng_(rng), options_(options) {
  if (!(options_.loss >= 0.0 && options_.loss < 1.0)) {
    throw std::invalid_argument("Network: loss must lie in [0, 1)");
  }
  if (!(options_.latency_min >= 0.0 &&
        options_.latency_max >= options_.latency_min)) {
    throw std::invalid_argument("Network: bad latency band");
  }
}

bool Network::send(Task on_deliver, Task on_lost) {
  ++sent_;
  const double latency =
      rng_.uniform(options_.latency_min, options_.latency_max);
  if (options_.loss > 0.0 && rng_.bernoulli(options_.loss)) {
    ++dropped_;
    if (on_lost) queue_.schedule_in(latency, std::move(on_lost));
    return false;
  }
  queue_.schedule_in(latency, std::move(on_deliver));
  return true;
}

}  // namespace deproto::sim
