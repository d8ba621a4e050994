// The motivating example (Section 1): the pull epidemic synthesized from
// eq. (0). Susceptible processes (state x) contact one random process per
// period; infected contacts (state y) transmit the multicast. Infection is
// absorbing; x(t) -> 0 in O(log N) rounds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "api/experiment.hpp"
#include "core/action.hpp"
#include "core/synthesis.hpp"

namespace deproto {
namespace {

constexpr std::size_t kInfected = 1;

/// Eq. (0) on n processes.
api::ScenarioSpec epidemic_spec(std::size_t n, std::uint64_t seed,
                                std::vector<std::size_t> counts) {
  api::ScenarioSpec spec;
  spec.source.catalog = "epidemic";
  spec.n = n;
  spec.seed = seed;
  spec.initial_counts = std::move(counts);
  return spec;
}

/// x' = -beta x y, y' = beta x y with the contact term as push + pull:
/// beta/2 contacts each way per period (beta even).
api::ScenarioSpec push_pull_epidemic_spec(int beta, std::size_t n,
                                          std::uint64_t seed) {
  api::ScenarioSpec spec = epidemic_spec(n, seed, {n - 1, 1});
  spec.source.catalog.clear();
  const std::string rate = std::to_string(beta);
  spec.source.ode_text = "x' = -" + rate + "*x*y\ny' = " + rate + "*x*y\n";
  spec.synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
  return spec;
}

/// Rounds until every alive process is infected (one full run).
std::size_t rounds_to_full_infection(const api::ScenarioSpec& spec) {
  api::Experiment experiment(spec);
  api::ExperimentRun run = experiment.launch();
  while (run.group().count(kInfected) < run.group().total_alive()) {
    run.advance(1);
    if (run.period() > 100 * (spec.n + 1)) {
      ADD_FAILURE() << "epidemic failed to converge";
      break;
    }
  }
  return run.period();
}

/// Rounds to full infection from a single infective in a group of n.
std::size_t rounds_from_one_infective(std::size_t n, std::uint64_t seed) {
  return rounds_to_full_infection(epidemic_spec(n, seed, {n - 1, 1}));
}

TEST(EpidemicTest, FullInfectionFromOneSeed) {
  const std::size_t rounds = rounds_from_one_infective(1000, 42);
  EXPECT_GT(rounds, 0U);
  EXPECT_LT(rounds, 60U);
}

TEST(EpidemicTest, InfectionIsMonotone) {
  api::Experiment experiment(epidemic_spec(200, 1, {199, 1}));
  api::ExperimentRun run = experiment.launch();
  std::size_t last = 1;
  for (int round = 0; round < 30; ++round) {
    run.advance(1);
    const std::size_t now = run.group().count(kInfected);
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(EpidemicTest, NoSpontaneousInfection) {
  api::Experiment experiment(epidemic_spec(100, 2, {100, 0}));
  api::ExperimentRun run = experiment.launch();
  run.advance(20);  // zero infectives seeded
  EXPECT_EQ(run.group().count(kInfected), 0U);
}

TEST(EpidemicTest, PushPullRunsHalfOfBetaEachWay) {
  // The premise of HigherFanoutConvergesFaster: the push-pull epidemic at
  // beta pulls from and pushes to beta/2 processes per period, at full
  // rate (p = 1).
  for (const int beta : {2, 8}) {
    api::Experiment experiment(push_pull_epidemic_spec(beta, 100, 0));
    const core::SynthesisResult& synthesis = experiment.artifacts().synthesis;
    EXPECT_DOUBLE_EQ(synthesis.p, 1.0);
    unsigned pull_fanout = 0, push_fanout = 0;
    for (const core::Action& action : synthesis.machine.actions()) {
      if (const auto* pull = std::get_if<core::AnyOfSamplingAction>(&action)) {
        pull_fanout = pull->fanout;
      }
      if (const auto* push = std::get_if<core::PushAction>(&action)) {
        push_fanout = push->fanout;
      }
    }
    EXPECT_EQ(pull_fanout, static_cast<unsigned>(beta / 2)) << beta;
    EXPECT_EQ(push_fanout, static_cast<unsigned>(beta / 2)) << beta;
  }
}

TEST(EpidemicTest, HigherFanoutConvergesFaster) {
  // Push-pull epidemics: beta = 8 (4 contacts each way) against beta = 2
  // (one contact each way).
  double slow = 0.0, fast = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    slow += static_cast<double>(
        rounds_to_full_infection(push_pull_epidemic_spec(2, 2000, seed)));
    fast += static_cast<double>(
        rounds_to_full_infection(push_pull_epidemic_spec(8, 2000, seed)));
  }
  EXPECT_LT(fast, slow);
}

// Property (Section 1): convergence takes O(log N) rounds. Fitting rounds
// against log2(N) should give a roughly constant ratio as N grows 4x.
class LogScalingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LogScalingTest, RoundsScaleLogarithmically) {
  const std::size_t n = GetParam();
  double rounds = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    rounds += static_cast<double>(rounds_from_one_infective(n, 100 + t));
  }
  rounds /= trials;
  const double ratio = rounds / std::log2(static_cast<double>(n));
  // Pull epidemics complete in ~log2(N) + O(log log N) rounds; the ratio
  // stays within a narrow constant band across two decades of N.
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 3.0);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, LogScalingTest,
                         ::testing::Values(256, 1024, 4096, 16384));

TEST(EpidemicTest, SurvivesMassiveFailure) {
  api::ScenarioSpec spec = epidemic_spec(1000, 3, {999, 1});
  spec.faults.massive_failures.push_back(sim::MassiveFailure{3, 0.5});
  api::Experiment experiment(spec);
  api::ExperimentRun run = experiment.launch();
  run.advance(80);
  // All alive processes still get the multicast.
  EXPECT_EQ(run.group().count(kInfected), run.group().total_alive());
}

}  // namespace
}  // namespace deproto
