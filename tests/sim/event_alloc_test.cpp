// Allocation regression test for the event backend: once its buffers
// have warmed up, a period of events (timers, probe round trips, token
// hand-offs, crash-recovery ticks) must not touch the heap. Lives in its
// own executable because it replaces the global operator new with a
// counting one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "api/experiment.hpp"
#include "api/registry.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace deproto::api {
namespace {

TEST(EventAllocTest, SteadyStateAllocatesAlmostNothingPerNodePeriod) {
  constexpr std::size_t kNodes = 1000;
  constexpr std::size_t kWarmup = 10;
  constexpr std::size_t kMeasured = 50;
  Experiment experiment(
      registry_get("endemic-crash-recovery-event").scaled_to(kNodes));
  ExperimentRun run = experiment.launch();
  run.advance(kWarmup);
  const std::size_t before = g_allocations.load();
  run.advance(kMeasured);
  const std::size_t allocations = g_allocations.load() - before;
  const double per_node_period = static_cast<double>(allocations) /
                                 static_cast<double>(kNodes * kMeasured);
  // The retained metrics samples (a few small vectors per period) are
  // all that should remain.
  EXPECT_LT(per_node_period, 0.1) << allocations << " allocations";
  EXPECT_GT(run.simulator().total_alive(), 0U);
}

}  // namespace
}  // namespace deproto::api
