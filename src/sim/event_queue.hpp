#pragma once

// Discrete-event kernel: a time-ordered queue of closures with stable
// FIFO tie-breaking at equal timestamps.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace deproto::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  void schedule(double t, Handler fn);

  /// Schedule `fn` `delay` time units from now.
  void schedule_in(double delay, Handler fn) {
    schedule(now_ + delay, std::move(fn));
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Timestamp of the earliest pending event; +infinity when empty (so
  /// callers pacing the queue against an external clock -- the net
  /// backend's wall-clock loop -- can min() it against their horizon).
  [[nodiscard]] double next_time() const noexcept {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.top().time;
  }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Pop and run the earliest event. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue empties or the next event is later than
  /// `t_end`; the clock then advances to t_end.
  void run_until(double t_end);

  /// Drain everything (use only when the event population is finite).
  void run_all();

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace deproto::sim
