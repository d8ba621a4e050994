// The unified Simulator interface: every backend is programmable through
// the same fault/scheduling/seeding surface. The two asynchronous backends
// (event, net) share one fault scheduler and the two round-based backends
// (sync, count) share one period-boundary fault plan; each pair is checked
// here on both of its members.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "net/net_sim.hpp"
#include "ode/catalog.hpp"
#include "sim/count_sim.hpp"
#include "sim/event_sim.hpp"
#include "sim/runtime.hpp"
#include "sim/sync_sim.hpp"

namespace deproto::sim {
namespace {

/// Two states and no actions: only faults move the population, so fault
/// semantics show without protocol noise.
core::ProtocolStateMachine frozen_machine() {
  return core::ProtocolStateMachine({"x", "y"});
}

/// Minimal protocol with an observable crash hook: state 0 flips to 1 with
/// probability q; crashes are counted.
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

  [[nodiscard]] int crashes_seen() const { return crashes_seen_; }

 private:
  double q_;
  int crashes_seen_ = 0;
};

/// The point of the interface: one fault program, any backend.
void program_faults(Simulator& simulator) {
  simulator.seed_states({90, 10});
  simulator.schedule_massive_failure(2.0, 0.5);
  simulator.schedule_crash(0, 4.0, /*recover_time=*/6.0);
  simulator.run_for(10.0);
}

TEST(SimulatorInterfaceTest, OneFaultProgramDrivesEitherBackend) {
  FlipProtocol sync_protocol(0.0);
  SyncSimulator sync(100, sync_protocol, 1);
  program_faults(sync);

  EventSimulator event(100, frozen_machine(), 1);
  program_faults(event);

  for (Simulator* simulator : {static_cast<Simulator*>(&sync),
                               static_cast<Simulator*>(&event)}) {
    // 50 crashed at t=2; pid 0 crashed at t=4 and recovered at t=6 (so a
    // net change only if pid 0 survived the massive failure).
    EXPECT_GE(simulator->group().total_alive(), 50U);
    EXPECT_LE(simulator->group().total_alive(), 51U);
    EXPECT_GE(simulator->now(), 10.0);
    EXPECT_GE(simulator->metrics().samples().size(), 10U);
  }
  EXPECT_GE(sync_protocol.crashes_seen(), 50);
}

TEST(SimulatorInterfaceTest, SeedingSkipsCrashedProcessesOnEveryBackend) {
  // One seeding rule (Group::seed_states) for sync, event and net: a
  // crashed pid uses up its slot and stays down.
  MachineExecutor executor(frozen_machine());
  SyncSimulator sync(10, executor, 17);
  EventSimulator event(10, frozen_machine(), 17);
  for (Simulator* simulator : {static_cast<Simulator*>(&sync),
                               static_cast<Simulator*>(&event)}) {
    simulator->schedule_crash(3, 0.0);
    simulator->run_for(1.0);
    simulator->seed_states({5, 5});
    EXPECT_EQ(simulator->count(0), 4U);  // pids 0-4 less the crashed 3
    EXPECT_EQ(simulator->count(1), 5U);  // pids 5-9
  }
}

TEST(SimulatorInterfaceTest, SyncScheduleCrashRecoversIntoRejoinState) {
  FlipProtocol protocol(0.0);
  SyncSimulator simulator(10, protocol, 2);
  simulator.seed_states({3, 7});  // pid 3 starts in state 1
  simulator.schedule_crash(3, 1.0, /*recover_time=*/4.0);
  simulator.run(3);
  EXPECT_FALSE(simulator.group().alive(3));
  simulator.run(3);
  EXPECT_TRUE(simulator.group().alive(3));
  EXPECT_EQ(simulator.group().state_of(3), 0U);  // every rejoin enters 0
  EXPECT_EQ(protocol.crashes_seen(), 1);
}

TEST(SimulatorInterfaceTest, EventMachineModeRecoversIntoStateZero) {
  // State 0 is the rejoin contract on every backend.
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(20, result.machine, 4);
  simulator.seed_states({0, 20});  // everyone infected
  simulator.schedule_crash(5, 0.5, /*recover_time=*/1.5);
  simulator.run_for(2.0);
  EXPECT_TRUE(simulator.group().alive(5));
  // Rejoined susceptible (state 0), not in its pre-crash infected state;
  // its first post-recovery action falls after t = 2, so the state is
  // still untouched here.
  EXPECT_EQ(simulator.group().state_of(5), 0U);
}

TEST(SimulatorInterfaceTest, AttachChurnReplacesThePreviousTrace) {
  // Same last-trace-wins semantics on both backends: re-attaching after
  // (say) correcting the rate must not replay the abandoned trace.
  const ChurnTrace first =
      ChurnTrace::from_events({ChurnEvent{0.2, 2, false}});
  const ChurnTrace second =
      ChurnTrace::from_events({ChurnEvent{0.2, 5, false}});

  FlipProtocol sync_protocol(0.0);
  SyncSimulator sync(10, sync_protocol, 14);
  sync.attach_churn(first, 10.0);
  sync.attach_churn(second, 10.0);
  sync.run_for(5.0);

  EventSimulator event(10, frozen_machine(), 14);
  event.attach_churn(first, 10.0);
  event.attach_churn(second, 10.0);
  event.run_for(5.0);

  for (Simulator* simulator : {static_cast<Simulator*>(&sync),
                               static_cast<Simulator*>(&event)}) {
    EXPECT_TRUE(simulator->group().alive(2));
    EXPECT_FALSE(simulator->group().alive(5));
    EXPECT_EQ(simulator->group().total_alive(), 9U);
  }
}

TEST(SimulatorInterfaceTest, EventChurnPlaybackCrashesAndRecovers) {
  EventSimulator simulator(10, frozen_machine(), 5);
  simulator.seed_states({0, 10});
  // Host 3 leaves at hour 0.1 and rejoins at hour 0.5 (periods: x10).
  simulator.attach_churn(ChurnTrace::from_events({
                             ChurnEvent{0.1, 3, false},
                             ChurnEvent{0.5, 3, true},
                         }),
                         10.0);
  simulator.run_for(2.0);  // departure at t=1.0 applied, rejoin not yet
  EXPECT_FALSE(simulator.group().alive(3));
  EXPECT_EQ(simulator.total_alive(), 9U);
  simulator.run_for(4.0);  // covers the rejoin at t=5.0
  EXPECT_TRUE(simulator.group().alive(3));
  EXPECT_EQ(simulator.group().state_of(3), 0U);  // a machine rejoins in 0
}

TEST(SimulatorInterfaceTest, EventCrashRecoveryKeepsPopulationRoughlyConstant) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(2000, result.machine, 6);
  simulator.seed_states({1999, 1});
  simulator.set_crash_recovery(0.01, 10.0);
  simulator.run_for(300.0);
  // Same steady state the sync backend reaches: ~1% crash/period with ~11
  // period downtime => ~10% down.
  const double alive =
      static_cast<double>(simulator.group().total_alive()) / 2000.0;
  EXPECT_GT(alive, 0.8);
  EXPECT_LT(alive, 0.98);
}

TEST(SimulatorInterfaceTest, EventCrashRecoveryReconfiguresWithoutStacking) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(200, result.machine, 16);
  simulator.seed_states({199, 1});
  simulator.set_crash_recovery(0.3, 0.0);  // crash-stop
  simulator.run_for(3.0);
  simulator.set_crash_recovery(0.0, 0.0);  // disarm: crashes stop
  const std::size_t frozen = simulator.group().total_alive();
  EXPECT_LT(frozen, 200U);
  simulator.run_for(10.0);
  EXPECT_EQ(simulator.group().total_alive(), frozen);
  // Rapid re-arms supersede (never stack) the tick chain: the population
  // keeps decaying at the single configured 30%/period rate, not at a
  // multiple of it.
  simulator.set_crash_recovery(0.3, 0.0);
  simulator.set_crash_recovery(0.3, 0.0);
  simulator.set_crash_recovery(0.3, 0.0);
  simulator.run_for(4.0);
  const double expected =
      static_cast<double>(frozen) * 0.7 * 0.7 * 0.7 * 0.7;
  EXPECT_GT(static_cast<double>(simulator.group().total_alive()),
            0.35 * expected);  // stacked chains would decay ~20x further
  EXPECT_LT(simulator.group().total_alive(), frozen);
}

TEST(SimulatorInterfaceTest, EventCrashStopWithoutRecoveryDrains) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(500, result.machine, 7);
  simulator.seed_states({499, 1});
  simulator.set_crash_recovery(0.05, 0.0);  // permanent crashes
  simulator.run_for(200.0);
  EXPECT_LT(simulator.group().total_alive(), 10U);
}

TEST(SimulatorInterfaceTest, EventValidatesFaultArguments) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(10, result.machine, 8);
  EXPECT_THROW(simulator.schedule_massive_failure(1.0, 1.5),
               std::invalid_argument);
  EXPECT_THROW(simulator.set_crash_recovery(2.0, 1.0),
               std::invalid_argument);
  ChurnTrace trace;
  EXPECT_THROW(simulator.attach_churn(trace, 0.0), std::invalid_argument);
}

TEST(SimulatorInterfaceTest, EveryBackendRejectsNonFiniteFaultTimes) {
  // A NaN time would otherwise reach the fault queues' comparators
  // (strict weak ordering broken); a negative recover time, -inf
  // included, still means "never recover".
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FlipProtocol protocol(0.0);
  SyncSimulator sync(10, protocol, 1);
  EventSimulator event(10, frozen_machine(), 1);
  CountSimulator count(10, frozen_machine(), 1);
  for (Simulator* simulator :
       {static_cast<Simulator*>(&sync), static_cast<Simulator*>(&event),
        static_cast<Simulator*>(&count)}) {
    EXPECT_THROW(simulator->schedule_massive_failure(kNaN, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(simulator->schedule_massive_failure(kInf, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(simulator->schedule_crash(0, kNaN), std::invalid_argument);
    EXPECT_THROW(simulator->schedule_crash(0, -kInf), std::invalid_argument);
    EXPECT_THROW(simulator->schedule_crash(0, 1.0, kNaN),
                 std::invalid_argument);
    EXPECT_THROW(simulator->schedule_crash(0, 1.0, kInf),
                 std::invalid_argument);
    simulator->schedule_crash(0, 1.0, -kInf);  // crash-stop
    simulator->run_for(3.0);
    EXPECT_EQ(simulator->total_alive(), 9U);
  }
}

TEST(SimulatorInterfaceTest, RunForAdvancesNow) {
  FlipProtocol protocol(0.0);
  SyncSimulator sync(10, protocol, 11);
  sync.run_for(3.0);
  EXPECT_DOUBLE_EQ(sync.now(), 3.0);
  sync.run_for(2.5);  // sync rounds partial periods up to whole rounds
  EXPECT_DOUBLE_EQ(sync.now(), 6.0);

  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator event(10, result.machine, 12);
  event.run_for(3.0);
  EXPECT_DOUBLE_EQ(event.now(), 3.0);
  event.run_for(2.5);  // event time is genuinely fractional
  EXPECT_DOUBLE_EQ(event.now(), 5.5);
}

/// The two asynchronous backends share one fault scheduler. Net runs on
/// loopback sockets with 2 ms periods; with the frozen machine no message
/// is ever sent, so both backends draw the same random numbers.
std::unique_ptr<Simulator> make_async(const std::string& backend,
                                      std::size_t n, std::uint64_t seed) {
  if (backend == "event") {
    return std::make_unique<EventSimulator>(n, frozen_machine(), seed);
  }
  net::NetSimOptions options;
  options.period_ms = 2.0;
  return std::make_unique<net::NetSimulator>(n, frozen_machine(), seed,
                                             options);
}

TEST(SimulatorInterfaceTest, EventAndNetCrashTheSameProcesses) {
  // Without recoveries (whose Join handshake draws on net) the shared
  // scheduler makes the same draws on both backends, victim for victim.
  auto event = make_async("event", 100, 20);
  auto net = make_async("net", 100, 20);
  for (Simulator* simulator : {event.get(), net.get()}) {
    simulator->schedule_massive_failure(1.5, 0.3);
    simulator->set_crash_recovery(0.05, 0.0);
    simulator->run_for(6.0);
  }
  EXPECT_LT(event->total_alive(), 70U);
  for (ProcessId pid = 0; pid < 100; ++pid) {
    EXPECT_EQ(event->group().alive(pid), net->group().alive(pid)) << pid;
  }
}

class AsyncFaultSurfaceTest : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] std::unique_ptr<Simulator> make(std::size_t n,
                                                std::uint64_t seed) const {
    return make_async(GetParam(), n, seed);
  }
};

TEST_P(AsyncFaultSurfaceTest, SecondChurnTraceReplacesTheFirst) {
  auto simulator = make(10, 14);
  simulator->attach_churn(
      ChurnTrace::from_events({ChurnEvent{0.2, 2, false}}), 10.0);
  simulator->attach_churn(
      ChurnTrace::from_events({ChurnEvent{0.2, 5, false}}), 10.0);
  simulator->run_for(5.0);
  EXPECT_TRUE(simulator->group().alive(2));
  EXPECT_FALSE(simulator->group().alive(5));
  EXPECT_EQ(simulator->total_alive(), 9U);
}

TEST_P(AsyncFaultSurfaceTest, CrashRecoveryReconfiguresWithoutStacking) {
  auto simulator = make(200, 16);
  simulator->set_crash_recovery(0.3, 0.0);  // crash-stop
  simulator->run_for(3.0);
  simulator->set_crash_recovery(0.0, 0.0);  // disarm: crashes stop
  const std::size_t frozen = simulator->total_alive();
  EXPECT_LT(frozen, 200U);
  simulator->run_for(3.0);
  EXPECT_EQ(simulator->total_alive(), frozen);
  // Re-arming three times supersedes the chain instead of stacking it:
  // the population decays at one 30%/period rate, not three.
  for (int k = 0; k < 3; ++k) simulator->set_crash_recovery(0.3, 0.0);
  simulator->run_for(4.0);
  const double expected = static_cast<double>(frozen) * 0.7 * 0.7 * 0.7 * 0.7;
  EXPECT_GT(static_cast<double>(simulator->total_alive()), 0.35 * expected);
  EXPECT_LT(simulator->total_alive(), frozen);
}

TEST_P(AsyncFaultSurfaceTest, ScheduleCrashIgnoresOutOfRangePid) {
  auto simulator = make(10, 18);
  simulator->schedule_crash(10, 1.0, /*recover_time=*/2.0);
  simulator->schedule_crash(1000, 1.0);
  simulator->run_for(3.0);
  EXPECT_EQ(simulator->total_alive(), 10U);
}

TEST_P(AsyncFaultSurfaceTest, BadFaultArgumentsThrow) {
  auto simulator = make(10, 19);
  EXPECT_THROW(simulator->schedule_massive_failure(1.0, 1.5),
               std::invalid_argument);
  EXPECT_THROW(simulator->schedule_massive_failure(1.0, -0.1),
               std::invalid_argument);
  EXPECT_THROW(simulator->set_crash_recovery(2.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(simulator->set_crash_recovery(-0.1, 1.0),
               std::invalid_argument);
  EXPECT_THROW(simulator->set_crash_recovery(0.1, -1.0),
               std::invalid_argument);
  EXPECT_THROW(simulator->attach_churn(ChurnTrace{}, 0.0),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AsyncFaultSurfaceTest, ::testing::Values("event", "net"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

/// The two round-based backends share one period-boundary fault plan
/// (fault_plan::Rounds). Count has no process identity, so these checks
/// read the population through the count accessors, plus group() where a
/// backend has one.
class RoundFaultSurfaceTest : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] std::unique_ptr<Simulator> make(std::size_t n,
                                                std::uint64_t seed) {
    if (GetParam() == "count") {
      return std::make_unique<CountSimulator>(n, frozen_machine(), seed);
    }
    return std::make_unique<SyncSimulator>(n, executor_, seed);
  }

 private:
  MachineExecutor executor_{frozen_machine()};
};

TEST_P(RoundFaultSurfaceTest, ScheduleCrashQuantizesLikeMassiveFailure) {
  // The contract: a fault at time t fires at the start of the first period
  // >= t -- the same boundary schedule_massive_failure uses and the moment
  // the event backend crashes the process at whole-period times.
  auto simulator = make(10, 13);
  simulator->schedule_crash(2, 4.0);
  simulator->run_for(4.0);  // periods 0..3: the crash is not due yet
  EXPECT_EQ(simulator->total_alive(), 10U);
  simulator->run_for(1.0);  // period 4 starts at t = 4.0
  EXPECT_EQ(simulator->total_alive(), 9U);
  if (simulator->per_node()) {
    EXPECT_FALSE(simulator->group().alive(2));
  }
}

TEST_P(RoundFaultSurfaceTest, DisarmedCrashRecoveryStillDrainsRecoveries) {
  // Disarming only stops new crashes; hosts already down when the process
  // is disarmed still recover (the event backend's queued recoveries fire
  // regardless, so the round-based backends must match).
  auto simulator = make(200, 15);
  simulator->set_crash_recovery(0.2, 3.0);
  simulator->run_for(10.0);
  EXPECT_LT(simulator->total_alive(), 200U);
  simulator->set_crash_recovery(0.0, 0.0);
  simulator->run_for(60.0);  // far past every pending recovery time
  EXPECT_EQ(simulator->total_alive(), 200U);
}

TEST_P(RoundFaultSurfaceTest, SecondChurnTraceReplacesTheFirst) {
  auto simulator = make(10, 14);
  simulator->attach_churn(ChurnTrace::from_events({ChurnEvent{0.2, 2, false},
                                                   ChurnEvent{0.3, 3, false}}),
                          10.0);
  simulator->attach_churn(
      ChurnTrace::from_events({ChurnEvent{0.2, 5, false}}), 10.0);
  simulator->run_for(5.0);
  EXPECT_EQ(simulator->total_alive(), 9U);  // the first trace took two
  if (simulator->per_node()) {
    EXPECT_TRUE(simulator->group().alive(2));
    EXPECT_TRUE(simulator->group().alive(3));
    EXPECT_FALSE(simulator->group().alive(5));
  }
}

TEST_P(RoundFaultSurfaceTest, ScheduleCrashIgnoresOutOfRangePid) {
  auto simulator = make(10, 18);
  simulator->schedule_crash(10, 1.0, /*recover_time=*/2.0);
  simulator->schedule_crash(1000, 1.0);
  simulator->run_for(3.0);
  EXPECT_EQ(simulator->total_alive(), 10U);
}

TEST_P(RoundFaultSurfaceTest, BadFaultArgumentsThrow) {
  auto simulator = make(10, 19);
  EXPECT_THROW(simulator->schedule_massive_failure(1.0, 1.5),
               std::invalid_argument);
  EXPECT_THROW(simulator->schedule_massive_failure(1.0, -0.1),
               std::invalid_argument);
  EXPECT_THROW(simulator->set_crash_recovery(2.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(simulator->set_crash_recovery(-0.1, 1.0),
               std::invalid_argument);
  EXPECT_THROW(simulator->set_crash_recovery(0.1, -1.0),
               std::invalid_argument);
  EXPECT_THROW(simulator->attach_churn(ChurnTrace{}, 0.0),
               std::invalid_argument);
}

TEST_P(RoundFaultSurfaceTest, MassiveFailureBetweenBoundariesFiresAtTheNext) {
  auto simulator = make(10, 21);
  simulator->schedule_massive_failure(2.5, 0.5);
  simulator->run_for(4.0);
  const std::vector<PeriodSample>& samples = simulator->metrics().samples();
  ASSERT_EQ(samples.size(), 4U);
  EXPECT_EQ(samples[2].total_alive, 10U);  // period 2 starts at t = 2.0
  EXPECT_EQ(samples[3].total_alive, 5U);   // period 3 is the first >= 2.5
}

TEST_P(RoundFaultSurfaceTest, ChurnDepartureShowsInItsCoveringPeriod) {
  // Churn keeps the covering-period rule: a departure at t = 2.3 acts
  // during period 2, so period 2's sample already misses the host.
  auto simulator = make(10, 22);
  simulator->attach_churn(
      ChurnTrace::from_events({ChurnEvent{0.23, 4, false}}), 10.0);
  simulator->run_for(3.0);
  const std::vector<PeriodSample>& samples = simulator->metrics().samples();
  ASSERT_EQ(samples.size(), 3U);
  EXPECT_EQ(samples[1].total_alive, 10U);
  EXPECT_EQ(samples[2].total_alive, 9U);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RoundFaultSurfaceTest, ::testing::Values("sync", "count"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace deproto::sim
