// The shared fault-plan quantization rules: every backend (sync, event,
// count) delegates to these helpers, so pinning them here pins the
// cross-backend parity the equivalence suite relies on. The round-based
// plan (Rounds) is checked through recording hooks: the order it applies
// faults in, the draws it makes, and the order it revives victims in.

#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace deproto::sim::fault_plan {
namespace {

TEST(FaultPlanTest, ValidatorsAcceptBoundsAndRejectOutside) {
  EXPECT_NO_THROW(validate_failure_fraction(0.0));
  EXPECT_NO_THROW(validate_failure_fraction(1.0));
  EXPECT_THROW(validate_failure_fraction(-0.1), std::invalid_argument);
  EXPECT_THROW(validate_failure_fraction(1.1), std::invalid_argument);

  EXPECT_NO_THROW(validate_crash_recovery(0.0, 0.0));
  EXPECT_NO_THROW(validate_crash_recovery(1.0, 10.0));
  EXPECT_THROW(validate_crash_recovery(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(validate_crash_recovery(1.1, 1.0), std::invalid_argument);
  EXPECT_THROW(validate_crash_recovery(0.5, -1.0), std::invalid_argument);

  EXPECT_NO_THROW(validate_periods_per_hour(0.5));
  EXPECT_THROW(validate_periods_per_hour(0.0), std::invalid_argument);
  EXPECT_THROW(validate_periods_per_hour(-1.0), std::invalid_argument);
}

TEST(FaultPlanTest, FailureVictimsRoundToNearest) {
  // llround semantics: half rounds away from zero. Both per-node backends
  // historically used llround, so the count backend must too.
  EXPECT_EQ(failure_victims(0.5, 1000), 500U);
  EXPECT_EQ(failure_victims(0.5, 1001), 501U);  // 500.5 -> 501
  EXPECT_EQ(failure_victims(0.25, 10), 3U);     // 2.5 -> 3
  EXPECT_EQ(failure_victims(0.0, 12345), 0U);
  EXPECT_EQ(failure_victims(1.0, 12345), 12345U);
}

TEST(FaultPlanTest, TraceInPeriodsConvertsHoursAndPreservesOrder) {
  const ChurnTrace trace = ChurnTrace::from_events({
      ChurnEvent{0.1, 3, false},
      ChurnEvent{0.5, 3, true},
      ChurnEvent{2.0, 7, false},
  });
  const std::vector<ChurnEvent> events = trace_in_periods(trace, 10.0);
  ASSERT_EQ(events.size(), 3U);
  EXPECT_DOUBLE_EQ(events[0].time_hours, 1.0);  // now in periods
  EXPECT_DOUBLE_EQ(events[1].time_hours, 5.0);
  EXPECT_DOUBLE_EQ(events[2].time_hours, 20.0);
  EXPECT_EQ(events[0].host, 3U);
  EXPECT_FALSE(events[0].up);
  EXPECT_TRUE(events[1].up);
}

TEST(FaultPlanTest, TraceInPeriodsClampsStaleEventsToMinTime) {
  // The event backend replays a trace attached mid-run: events already in
  // the past fire "now" instead of being lost or applied retroactively.
  const ChurnTrace trace = ChurnTrace::from_events({
      ChurnEvent{0.1, 1, false},
      ChurnEvent{1.0, 2, false},
  });
  const std::vector<ChurnEvent> events = trace_in_periods(trace, 10.0, 4.5);
  ASSERT_EQ(events.size(), 2U);
  EXPECT_DOUBLE_EQ(events[0].time_hours, 4.5);   // 1.0 clamped up
  EXPECT_DOUBLE_EQ(events[1].time_hours, 10.0);  // already past min_time
}

TEST(FaultPlanTest, TraceInPeriodsRejectsBadRate) {
  EXPECT_THROW((void)trace_in_periods(ChurnTrace(), 0.0),
               std::invalid_argument);
}

TEST(FaultPlanTest, RecoveryDelayIsOnePeriodPlusExponentialTail) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(recovery_delay(rng, 5.0), 1.0);
  }
}

TEST(FaultPlanTest, FirstPeriodAtOrAfterCeilsAndClampsNegative) {
  EXPECT_EQ(first_period_at_or_after(-3.0), 0U);
  EXPECT_EQ(first_period_at_or_after(0.0), 0U);
  EXPECT_EQ(first_period_at_or_after(2.0), 2U);
  EXPECT_EQ(first_period_at_or_after(2.25), 3U);
}

/// Hooks that append what the plan asks for to `log`, over a population
/// of `alive` anonymous processes.
Rounds::Hooks recording_hooks(std::vector<std::string>& log,
                              std::size_t& alive) {
  return {.crash_random =
              [&log, &alive](std::size_t k) {
                log.push_back("crash " + std::to_string(k));
                alive -= k;
                return std::vector<ProcessId>{};
              },
          .apply =
              [&log](const ChurnEvent& e) {
                log.push_back((e.up ? "up " : "down ") +
                              std::to_string(e.host));
              },
          .recover =
              [&log](ProcessId pid) {
                log.push_back("recover " + std::to_string(pid));
              },
          .revive =
              [&log, &alive](std::size_t k) {
                log.push_back("revive " + std::to_string(k));
                alive += k;
              },
          .total_alive = [&alive] { return alive; }};
}

TEST(RoundsTest, AppliesDueFaultsInBoundaryOrder) {
  std::vector<std::string> log;
  std::size_t alive = 10;
  Rng rng(1);
  Rounds plan(rng, 10, recording_hooks(log, alive));
  plan.schedule_massive_failure(1.0, 0.5);
  plan.schedule_crash(3, 0.5, /*recover_time=*/1.0);
  plan.schedule_crash(99, 0.0, -1.0);  // host >= n: never applied
  plan.attach_churn(ChurnTrace::from_events({ChurnEvent{1.7, 4, false},
                                             ChurnEvent{2.0, 6, false},
                                             ChurnEvent{2.5, 8, false}}),
                    1.0);
  plan.begin_period(0);
  EXPECT_TRUE(log.empty());
  // Period 1: the failure due at 1.0, then the targeted crash and its
  // recovery (both <= 1), then churn up to and including t + 1 = 2.
  plan.begin_period(1);
  EXPECT_EQ(log, (std::vector<std::string>{"crash 5", "down 3", "up 3",
                                           "down 4", "down 6"}));
  log.clear();
  plan.begin_period(2);
  EXPECT_EQ(log, (std::vector<std::string>{"down 8"}));
  log.clear();
  plan.begin_period(3);
  EXPECT_TRUE(log.empty());
}

TEST(RoundsTest, DrawsVictimCountThenOneDelayPerAnonymousVictim) {
  // Count returns no pids, yet the plan still draws a recovery delay for
  // every victim, in the same order as for identified ones, and revives
  // each due period's victims as one count.
  std::vector<std::string> log;
  std::size_t alive = 1000;
  Rng rng(5);
  Rounds plan(rng, 1000, recording_hooks(log, alive));
  plan.set_crash_recovery(0.1, 4.0);
  plan.begin_period(0);
  plan.set_crash_recovery(0.0, 0.0);

  Rng ref(5);
  const std::size_t crashes = ref.binomial(1000, 0.1);
  std::map<std::size_t, std::size_t> due;
  for (std::size_t i = 0; i < crashes; ++i) {
    ++due[first_period_at_or_after(recovery_delay(ref, 4.0))];
  }
  EXPECT_EQ(rng.engine()(), ref.engine()());  // the same draws, no more
  EXPECT_EQ(log, (std::vector<std::string>{"crash " +
                                           std::to_string(crashes)}));
  log.clear();

  std::vector<std::string> expected;
  const std::size_t last = due.rbegin()->first;
  for (std::size_t period = 1; period <= last; ++period) {
    plan.begin_period(period);
    if (due.contains(period)) {
      expected.push_back("revive " + std::to_string(due[period]));
    }
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(alive, 1000U);
}

TEST(RoundsTest, RevivesIdentifiedVictimsInRecoveryTimeOrder) {
  // Victims come back in (recovery time, pid) order, whatever order the
  // backend reported them in: the order a sync Group revives them in
  // feeds every later draw.
  std::vector<ProcessId> revived;
  std::size_t alive = 50;
  Rng rng(9);
  Rounds plan(rng, 50,
              {.crash_random =
                   [&alive](std::size_t k) {
                     std::vector<ProcessId> victims;
                     for (std::size_t i = 0; i < k; ++i) {
                       victims.push_back(static_cast<ProcessId>(49 - i));
                     }
                     alive -= k;
                     return victims;
                   },
               .recover = [&revived](ProcessId pid) { revived.push_back(pid); },
               .total_alive = [&alive] { return alive; }});
  plan.set_crash_recovery(1.0, 3.0);  // binomial(50, 1) = 50: all crash
  plan.begin_period(0);
  plan.set_crash_recovery(0.0, 0.0);
  EXPECT_EQ(alive, 0U);

  Rng ref(9);
  EXPECT_EQ(ref.binomial(50, 1.0), 50U);
  std::vector<std::tuple<std::size_t, double, ProcessId>> order;
  for (std::size_t i = 0; i < 50; ++i) {
    const double time = recovery_delay(ref, 3.0);
    order.emplace_back(first_period_at_or_after(time), time,
                       static_cast<ProcessId>(49 - i));
  }
  std::sort(order.begin(), order.end());
  std::vector<ProcessId> expected;
  for (const auto& [period, time, pid] : order) expected.push_back(pid);

  for (std::size_t period = 1; period <= std::get<0>(order.back());
       ++period) {
    plan.begin_period(period);
  }
  EXPECT_EQ(revived, expected);
}

}  // namespace
}  // namespace deproto::sim::fault_plan
