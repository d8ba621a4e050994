#include <gtest/gtest.h>

#include "sim/churn.hpp"
#include "sim/metrics.hpp"

namespace deproto::sim {
namespace {

TEST(ChurnTest, FromEventsSorts) {
  ChurnTrace trace = ChurnTrace::from_events({
      ChurnEvent{5.0, 1, true},
      ChurnEvent{1.0, 1, false},
  });
  ASSERT_EQ(trace.events().size(), 2U);
  EXPECT_FALSE(trace.events()[0].up);
  EXPECT_TRUE(trace.events()[1].up);
}

TEST(ChurnTest, SyntheticOvernetRatesWithinBand) {
  Rng rng(42);
  const std::size_t n = 2000;
  const double hours = 24.0;
  const ChurnTrace trace =
      ChurnTrace::synthetic_overnet(n, hours, 0.10, 0.25, 0.5, rng);
  // Departures per hour within the configured band (loosened for the
  // already-down filter).
  std::vector<int> per_hour(static_cast<std::size_t>(hours), 0);
  for (const ChurnEvent& e : trace.events()) {
    if (!e.up) ++per_hour[static_cast<std::size_t>(e.time_hours)];
  }
  for (int count : per_hour) {
    EXPECT_GE(count, static_cast<int>(0.05 * n));
    EXPECT_LE(count, static_cast<int>(0.26 * n));
  }
}

TEST(ChurnTest, EventsSortedAndDownBeforeUpPerHost) {
  Rng rng(7);
  const ChurnTrace trace =
      ChurnTrace::synthetic_overnet(100, 12.0, 0.10, 0.25, 0.5, rng);
  double last = 0.0;
  for (const ChurnEvent& e : trace.events()) {
    EXPECT_GE(e.time_hours, last);
    last = e.time_hours;
  }
  // Per host, events alternate down/up.
  std::vector<int> state(100, 1);  // 1 = up
  for (const ChurnEvent& e : trace.events()) {
    if (e.up) {
      EXPECT_EQ(state[e.host], 0) << "rejoin while up, host " << e.host;
      state[e.host] = 1;
    } else {
      EXPECT_EQ(state[e.host], 1) << "departure while down, host " << e.host;
      state[e.host] = 0;
    }
  }
}

TEST(ChurnTest, DeparturesPerHostDayStatistic) {
  Rng rng(21);
  const std::size_t n = 500;
  const ChurnTrace trace =
      ChurnTrace::synthetic_overnet(n, 48.0, 0.10, 0.25, 0.3, rng);
  const double rate = trace.departures_per_host_day(n, 48.0);
  // ~17.5% churn/hour * 24h would be ~4.2 if hosts never stayed down;
  // the published Overnet figure is 6.4. Accept a broad sane band.
  EXPECT_GT(rate, 1.0);
  EXPECT_LT(rate, 10.0);
}

TEST(MetricsTest, RecordsPopulationsAndTransitions) {
  Group g(10, 2);
  MetricsCollector metrics(2);
  metrics.begin_period(0.0);
  g.transition(0, 1);
  metrics.record_transition(0, 1);
  g.transition(1, 1);
  metrics.record_transition(0, 1);
  metrics.end_period(g);

  ASSERT_EQ(metrics.samples().size(), 1U);
  const PeriodSample& s = metrics.samples()[0];
  EXPECT_EQ(s.alive_in_state[0], 8U);
  EXPECT_EQ(s.alive_in_state[1], 2U);
  EXPECT_EQ(s.transitions[0 * 2 + 1], 2U);
  EXPECT_EQ(s.total_alive, 10U);
}

TEST(MetricsTest, EndWithoutBeginThrows) {
  Group g(2, 2);
  MetricsCollector metrics(2);
  EXPECT_THROW(metrics.end_period(g), std::logic_error);
}

TEST(MetricsTest, WindowSummaries) {
  Group g(10, 2);
  MetricsCollector metrics(2);
  // Periods with 0, 1, 2, 3 processes in state 1.
  for (int k = 0; k < 4; ++k) {
    metrics.begin_period(k);
    if (k > 0) {
      g.transition(static_cast<ProcessId>(k - 1), 1);
      metrics.record_transition(0, 1);
    }
    metrics.end_period(g);
  }
  const WindowSummary all = metrics.summarize_state(1, 0, 4);
  EXPECT_DOUBLE_EQ(all.min, 0.0);
  EXPECT_DOUBLE_EQ(all.max, 3.0);
  EXPECT_DOUBLE_EQ(all.median, 1.5);
  EXPECT_DOUBLE_EQ(all.mean, 1.5);
  const WindowSummary flux = metrics.summarize_flux(0, 1, 0, 4);
  EXPECT_DOUBLE_EQ(flux.max, 1.0);
  EXPECT_DOUBLE_EQ(flux.min, 0.0);
}

}  // namespace
}  // namespace deproto::sim
