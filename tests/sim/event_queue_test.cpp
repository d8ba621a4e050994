#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace deproto::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3U);
}

TEST(EventQueueTest, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ClockAdvancesWithEvents) {
  EventQueue q;
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  q.step();
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1U);
}

TEST(EventQueueTest, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(1.0, recurse);
  };
  q.schedule(0.0, recurse);
  q.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, SchedulingAtANonFiniteTimeThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FarFutureTimesKeepTheirOrder) {
  // Times whose bucket index would overflow an integer share the last
  // bucket and are still popped in (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1e300, [&] { order.push_back(3); });
  q.schedule(1e299, [&] { order.push_back(1); });
  q.schedule(1e300, [&] { order.push_back(4); });
  q.schedule(1e299 * 2, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(q.now(), 1e300);
}

/// A seeded schedule exercising every path of the queue: equal timestamps,
/// zero delays, times far beyond the ring's horizon, handlers that
/// schedule more work, and run_until jumps over empty stretches followed
/// by fresh inserts. Since no event may be scheduled before now(), the
/// execution order must be exactly the (time, schedule order) sort of
/// everything that ran.
TEST(EventQueueTest, MatchesAReferenceSortOnARandomSchedule) {
  struct Record {
    double time;
    std::uint64_t seq;
  };
  // Handlers capture only {harness, t, seq}: the state lives here.
  struct Harness {
    EventQueue q;
    Rng rng{2024};
    std::vector<Record> ran;
    std::uint64_t scheduled = 0;

    // Delays drawn from a mix: zero, a coarse grid (ties), fine noise, a
    // few periods, and far beyond the ring's horizon.
    double delay() {
      switch (rng.uniform_int(6)) {
        case 0:
          return 0.0;
        case 1:
          return static_cast<double>(rng.uniform_int(8)) / 16.0;
        case 2:
          return rng.uniform(0.0, 0.01);
        case 3:
          return rng.uniform(0.0, 3.0);
        case 4:
          return rng.uniform(1.0, 100.0);
        default:
          return static_cast<double>(rng.uniform_int(4)) * 1e6;
      }
    }
    void add(double t) {
      const std::uint64_t seq = scheduled++;
      q.schedule(t, [this, t, seq] {
        EXPECT_EQ(q.now(), t);
        ran.push_back({t, seq});
        const std::uint64_t children = rng.uniform_int(3);
        if (scheduled >= 20000) return;
        for (std::uint64_t k = 0; k < children; ++k) add(q.now() + delay());
      });
    }
  } h;

  for (int phase = 0; phase < 6; ++phase) {
    for (int k = 0; k < 200; ++k) h.add(h.q.now() + h.delay());
    const double stop = h.q.now() + h.rng.uniform(0.0, 5.0);
    h.q.run_until(stop);
    EXPECT_GT(h.q.next_time(), stop);
    EXPECT_GE(h.q.now(), stop);
    if (phase % 2 == 1) {
      // Jump across an empty stretch, then insert near the new now().
      h.q.run_all();
      h.q.run_until(h.q.now() + 1e3 + h.rng.uniform(0.0, 1.0));
      h.add(h.q.now());
      h.add(h.q.now() + 0.001);
    }
  }
  h.q.run_all();
  ASSERT_EQ(h.ran.size(), h.scheduled);
  EXPECT_EQ(h.q.executed(), h.scheduled);
  EXPECT_EQ(h.q.pending(), 0U);
  std::vector<Record> expected = h.ran;
  std::sort(expected.begin(), expected.end(),
            [](const Record& a, const Record& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
  for (std::size_t i = 0; i < h.ran.size(); ++i) {
    ASSERT_EQ(h.ran[i].seq, expected[i].seq) << "position " << i;
  }
  // ... and every scheduled event ran exactly once.
  std::sort(expected.begin(), expected.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].seq, i);
  }
}

/// Counts destructions of the one live copy of a capture (moved-from
/// shells do not count).
class Tracked {
 public:
  explicit Tracked(int* destroyed) : destroyed_(destroyed) {}
  Tracked(Tracked&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

TEST(EventQueueTest, CaptureIsDestroyedOnceAfterItRuns) {
  int destroyed = 0;
  int ran = 0;
  EventQueue q;
  q.schedule(1.0, [tracked = Tracked(&destroyed), &ran] { ++ran; });
  EXPECT_EQ(destroyed, 0);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(destroyed, 1);
  // Enough further events to grow the handler slab several times over.
  for (int k = 0; k < 100; ++k) {
    q.schedule(2.0 + k, [tracked = Tracked(&destroyed), &ran] { ++ran; });
  }
  q.run_until(51.5);
  EXPECT_EQ(ran, 51);
  EXPECT_EQ(destroyed, 51);
  q.run_all();
  EXPECT_EQ(destroyed, 101);
}

TEST(EventQueueTest, PendingCapturesAreDestroyedWithTheQueue) {
  int destroyed = 0;
  {
    EventQueue q;
    for (int k = 0; k < 10; ++k) {
      // Ring, current bucket and overflow heap all hold some.
      q.schedule(k < 5 ? 0.5 * k : 1e4 * k, [tracked = Tracked(&destroyed)] {});
    }
    q.step();
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 10);
}

TEST(EventQueueTest, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace deproto::sim
