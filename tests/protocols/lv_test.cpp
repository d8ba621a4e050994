// Case Study II (Section 4.2): the LV protocol for probabilistic majority
// selection, run as the Figure 3 machine synthesized from the rewritten
// Lotka-Volterra system (eq. 7). Every process proposes 0 (state x) or 1
// (state y); the group converges w.h.p. to the initial majority, with
// state z (undecided) as the intermediate.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "api/experiment.hpp"
#include "core/synthesis.hpp"

namespace deproto {
namespace {

constexpr std::size_t kX = 0;  // proposing/decided 0
constexpr std::size_t kY = 1;  // proposing/decided 1
constexpr std::size_t kZ = 2;  // undecided

/// Eq. (7) synthesized at normalizer p (coin bias 3p) on n processes.
api::ScenarioSpec lv_spec(double p, std::size_t n, std::uint64_t seed,
                          std::vector<std::size_t> counts) {
  api::ScenarioSpec spec;
  spec.source.catalog = "lv";
  spec.synthesis.p = p;
  spec.n = n;
  spec.seed = seed;
  spec.initial_counts = std::move(counts);
  return spec;
}

/// True when every alive process holds the same decided value.
bool converged(const sim::Group& group) {
  const std::size_t alive = group.total_alive();
  return alive > 0 && (group.count(kX) == alive || group.count(kY) == alive);
}

/// The winning value if converged (0 or 1); -1 otherwise.
int winner(const sim::Group& group) {
  if (!converged(group)) return -1;
  return group.count(kY) == group.total_alive() ? 1 : 0;
}

/// Advance in steps of `step` until the group converges or `limit`
/// periods have passed; returns the periods advanced.
std::size_t run_to_agreement(api::ExperimentRun& run, std::size_t step,
                             std::size_t limit) {
  std::size_t period = 0;
  while (!converged(run.group()) && period < limit) {
    run.advance(step);
    period += step;
  }
  return period;
}

TEST(LvTest, ParameterValidation) {
  // Every coin of the synthesized machine is 3p, so p must lie in
  // (0, 1/3].
  auto launch = [](double p) {
    api::Experiment experiment(lv_spec(p, 10, 1, {5, 5, 0}));
    (void)experiment.launch();
  };
  EXPECT_THROW(launch(0.0), core::SynthesisError);
  EXPECT_THROW(launch(0.4), core::SynthesisError);  // 3p > 1
  EXPECT_NO_THROW(launch(1.0 / 3.0));
}

TEST(LvTest, DecisionReadout) {
  // A process's decision is its state: x decides 0, y decides 1, z is
  // undecided. The readout above relies on these state ids.
  api::Experiment experiment(lv_spec(0.01, 3, 1, {1, 1, 1}));
  const core::ProtocolStateMachine& machine =
      experiment.artifacts().synthesis.machine;
  ASSERT_EQ(machine.state_index("x"), kX);
  ASSERT_EQ(machine.state_index("y"), kY);
  ASSERT_EQ(machine.state_index("z"), kZ);
  api::ExperimentRun run = experiment.launch();
  EXPECT_EQ(run.group().state_of(0), kX);
  EXPECT_EQ(run.group().state_of(1), kY);
  EXPECT_EQ(run.group().state_of(2), kZ);
  EXPECT_FALSE(converged(run.group()));
  EXPECT_EQ(winner(run.group()), -1);
  run.group().transition(0, kY);
  run.group().transition(2, kY);
  EXPECT_TRUE(converged(run.group()));
  EXPECT_EQ(winner(run.group()), 1);
}

// The headline property: the initial majority wins w.h.p. Run several seeds
// on a 60/40 split; every run must converge to the majority value 0.
class MajoritySeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MajoritySeedTest, InitialMajorityWins) {
  api::Experiment experiment(lv_spec(0.05, 1000, GetParam(), {600, 400, 0}));
  api::ExperimentRun run = experiment.launch();
  run_to_agreement(run, 10, 3000);
  ASSERT_TRUE(converged(run.group()));
  EXPECT_EQ(winner(run.group()), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MajoritySeedTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(LvTest, MirroredStartFavorsOne) {
  api::Experiment experiment(lv_spec(0.05, 1000, 5, {400, 600, 0}));
  api::ExperimentRun run = experiment.launch();
  run_to_agreement(run, 10, 3000);
  ASSERT_TRUE(converged(run.group()));
  EXPECT_EQ(winner(run.group()), 1);
}

TEST(LvTest, TieBreaksToSomeValue) {
  // x0 = y0: the saddle at (1/3, 1/3) is unsustainable at finite N;
  // randomization must eventually break the tie either way.
  api::Experiment experiment(lv_spec(0.1, 300, 6, {150, 150, 0}));
  api::ExperimentRun run = experiment.launch();
  run_to_agreement(run, 50, 20000);
  ASSERT_TRUE(converged(run.group()));
  EXPECT_NE(winner(run.group()), -1);
}

TEST(LvTest, ConvergesDespiteMassiveFailure) {
  // Figure 12 shape at laptop scale: 50% crash mid-run delays but does not
  // prevent convergence to the initial majority.
  api::ScenarioSpec spec = lv_spec(0.05, 2000, 7, {1200, 800, 0});
  spec.faults.massive_failures.push_back(sim::MassiveFailure{20, 0.5});
  api::Experiment experiment(spec);
  api::ExperimentRun run = experiment.launch();
  run_to_agreement(run, 10, 5000);
  ASSERT_TRUE(converged(run.group()));
  EXPECT_EQ(winner(run.group()), 0);
  EXPECT_EQ(run.group().total_alive(), 1000U);
}

TEST(LvTest, SelfStabilizesAfterPerturbation) {
  // Self-stabilization (Section 4.2.2): after convergence to all-x, flip a
  // minority of processes to y; the system must re-converge to x.
  api::Experiment experiment(lv_spec(0.1, 500, 8, {400, 100, 0}));
  api::ExperimentRun run = experiment.launch();
  run_to_agreement(run, 10, 5000);
  ASSERT_EQ(winner(run.group()), 0);
  // Perturb: 100 processes switch to proposing 1.
  for (sim::ProcessId pid = 0; pid < 100; ++pid) {
    run.group().transition(pid, kY);
  }
  EXPECT_FALSE(converged(run.group()));
  run_to_agreement(run, 10, 5000);
  ASSERT_TRUE(converged(run.group()));
  EXPECT_EQ(winner(run.group()), 0);
}

TEST(LvTest, LargerPConvergesFaster) {
  auto periods_to_converge = [](double p, std::uint64_t seed) {
    api::Experiment experiment(lv_spec(p, 500, seed, {300, 200, 0}));
    api::ExperimentRun run = experiment.launch();
    return run_to_agreement(run, 10, 50000);
  };
  double slow = 0.0, fast = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    slow += static_cast<double>(periods_to_converge(0.02, 10 + seed));
    fast += static_cast<double>(periods_to_converge(0.2, 10 + seed));
  }
  EXPECT_LT(fast, slow);
}

TEST(LvTest, RejoinsProposingZero) {
  // A revived process enters state 0 (x, proposing 0) like on every other
  // machine; there is no rejoin-as-undecided rule.
  api::Experiment experiment(lv_spec(0.01, 10, 9, {9, 0, 1}));
  api::ExperimentRun run = experiment.launch();
  ASSERT_EQ(run.group().state_of(9), kZ);
  run.simulator().schedule_crash(9, 0.0, /*recover_time=*/2.0);
  run.advance(1);
  EXPECT_FALSE(run.group().alive(9));
  // The survivors agree on 0, a fixed point, so the rejoin state stays
  // observable.
  ASSERT_EQ(winner(run.group()), 0);
  run.advance(2);
  ASSERT_TRUE(run.group().alive(9));
  EXPECT_EQ(run.group().state_of(9), kX);
}

}  // namespace
}  // namespace deproto
