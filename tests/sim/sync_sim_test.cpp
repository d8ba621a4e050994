#include "sim/sync_sim.hpp"

#include <gtest/gtest.h>

namespace deproto::sim {
namespace {

/// Minimal protocol: state 0 members flip to state 1 with probability q.
class FlipProtocol final : public PeriodicProtocol {
 public:
  explicit FlipProtocol(double q) : q_(q) {}
  [[nodiscard]] std::size_t num_states() const override { return 2; }
  void on_crash(ProcessId) override { ++crashes_seen_; }

  void execute_period(Group& group, Rng& rng) override {
    const std::size_t k = rng.binomial(group.count(0), q_);
    for (std::size_t i = 0; i < k; ++i) {
      group.transition(group.random_member(0, rng), 1);
    }
  }

  int crashes_seen() const { return crashes_seen_; }

 private:
  double q_;
  int crashes_seen_ = 0;
};

TEST(SyncSimTest, RunsPeriodsAndRecordsMetrics) {
  FlipProtocol protocol(0.5);
  SyncSimulator simulator(100, protocol, 1);
  simulator.run(10);
  EXPECT_EQ(simulator.current_period(), 10U);
  EXPECT_EQ(simulator.metrics().samples().size(), 10U);
  // With q = 0.5 per period, state 0 is (nearly) empty after 10 periods.
  EXPECT_LT(simulator.group().count(0), 5U);
}

TEST(SyncSimTest, TransitionsAutomaticallyCounted) {
  FlipProtocol protocol(1.0);  // everyone flips in period 0
  SyncSimulator simulator(50, protocol, 2);
  simulator.run(1);
  EXPECT_EQ(simulator.metrics().samples()[0].transitions[0 * 2 + 1], 50U);
}

TEST(SyncSimTest, SeedStatesDistributes) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(100, protocol, 3);
  simulator.seed_states({60, 40});
  EXPECT_EQ(simulator.group().count(0), 60U);
  EXPECT_EQ(simulator.group().count(1), 40U);
  EXPECT_THROW(simulator.seed_states({200, 0}), std::invalid_argument);
}

TEST(SyncSimTest, MassiveFailureCrashesFraction) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(1000, protocol, 4);
  simulator.schedule_massive_failure(3, 0.5);
  simulator.run(3);
  EXPECT_EQ(simulator.group().total_alive(), 1000U);
  simulator.run(1);
  EXPECT_EQ(simulator.group().total_alive(), 500U);
  EXPECT_EQ(protocol.crashes_seen(), 500);
}

TEST(SyncSimTest, ChurnPlaybackCrashesAndRecovers) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(10, protocol, 5);
  simulator.seed_states({3, 7});  // host 3 starts in state 1
  // Host 3 leaves at hour 0.1 and rejoins at hour 0.5 (periods: x10).
  simulator.attach_churn(ChurnTrace::from_events({
                             ChurnEvent{0.1, 3, false},
                             ChurnEvent{0.5, 3, true},
                         }),
                         10.0);
  simulator.run(2);  // departure (t = 1.0 periods) applied, rejoin not yet
  EXPECT_FALSE(simulator.group().alive(3));
  simulator.run(4);  // covers the rejoin at t = 5.0 periods
  EXPECT_TRUE(simulator.group().alive(3));
  // Rejoined into state 0, whatever it held before the departure.
  EXPECT_EQ(simulator.group().state_of(3), 0U);
}

TEST(SyncSimTest, ChurnDepartureOnly) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(10, protocol, 6);
  simulator.attach_churn(
      ChurnTrace::from_events({ChurnEvent{0.05, 7, false}}), 10.0);
  simulator.run(1);
  EXPECT_FALSE(simulator.group().alive(7));
  EXPECT_EQ(simulator.group().total_alive(), 9U);
}

TEST(SyncSimTest, CrashRecoveryKeepsPopulationRoughlyConstant) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(2000, protocol, 7);
  simulator.set_crash_recovery(0.01, 10.0);
  simulator.run(300);
  // Steady state: ~1% crash per period, ~10 period downtime => ~10% down.
  const double alive =
      static_cast<double>(simulator.group().total_alive()) / 2000.0;
  EXPECT_GT(alive, 0.8);
  EXPECT_LT(alive, 0.98);
}

TEST(SyncSimTest, CrashStopWithoutRecoveryDrains) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(500, protocol, 8);
  simulator.set_crash_recovery(0.05, 0.0);  // permanent crashes
  simulator.run(200);
  EXPECT_LT(simulator.group().total_alive(), 10U);
}

TEST(SyncSimTest, ValidatesArguments) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(10, protocol, 9);
  EXPECT_THROW(simulator.schedule_massive_failure(1, 1.5),
               std::invalid_argument);
  EXPECT_THROW(simulator.set_crash_recovery(2.0, 1.0),
               std::invalid_argument);
  ChurnTrace trace;
  EXPECT_THROW(simulator.attach_churn(trace, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace deproto::sim
