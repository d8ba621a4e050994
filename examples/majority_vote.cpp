// LOCKSS-style repair voting (the Section 4.2 application): replicas of a
// document disagree -- version A or version B -- and the group must settle
// on the majority version without any coordinator, tolerating crashes.
// Probabilistic majority selection via the LV protocol: the decision
// variable may be read at any time and the protocol self-stabilizes, so a
// later wave of writes flips the group to the new majority.
//
// The protocol machine is synthesized from the rewritten Lotka-Volterra
// system (eq. 7) by the api::Experiment facade; because the vote is
// convergence-driven (run until unanimous, then keep running), the example
// uses Experiment::launch() and steps the returned run by hand instead of
// the one-shot Experiment::run(). A replica proposing version A sits in
// state x, version B in state y, and an undecided one in state z.
//
// Build & run:  ./examples/majority_vote

#include <cstdio>

#include "api/experiment.hpp"

namespace {

using deproto::sim::Group;

/// The synthesized machine's state ids for x (version A), y (version B)
/// and z (undecided).
struct Votes {
  std::size_t a = 0;
  std::size_t b = 0;
  std::size_t undecided = 0;
};

/// True when every alive replica holds the same version.
bool converged(const Group& group, const Votes& v) {
  const std::size_t alive = group.total_alive();
  return alive > 0 && (group.count(v.a) == alive || group.count(v.b) == alive);
}

/// A replica's running decision variable, readable at any moment.
const char* decision_name(const Group& group, const Votes& v,
                          deproto::sim::ProcessId pid) {
  const std::size_t state = group.state_of(pid);
  if (state == v.a) return "version A";
  if (state == v.b) return "version B";
  return "undecided";
}

void report(const Group& group, const Votes& v, std::size_t period) {
  const char* verdict = "";
  if (converged(group, v)) {
    verdict = group.count(v.a) == group.total_alive()
                  ? "<- agreed on version A"
                  : "<- agreed on version B";
  }
  std::printf("%8zu %12zu %12zu %12zu  %s\n", period, group.count(v.a),
              group.count(v.b), group.count(v.undecided), verdict);
}

}  // namespace

int main() {
  using namespace deproto;
  constexpr std::size_t kN = 20000;

  // The LV majority scenario: eq. (7) synthesized at p = 0.05, a 55%/45%
  // split over 20,000 replicas, and a 30% massive failure at period 20.
  api::ScenarioSpec spec;
  spec.name = "repair-vote";
  spec.source.catalog = "lv";
  spec.synthesis.p = 0.05;
  spec.n = kN;
  spec.seed = 1234;
  spec.periods = 5000;  // upper bound; the loop stops at convergence
  spec.initial_counts = {11000, 9000, 0};
  spec.faults.massive_failures.push_back(sim::MassiveFailure{20, 0.3});

  api::Experiment experiment(spec);
  const core::ProtocolStateMachine& machine =
      experiment.artifacts().synthesis.machine;
  const Votes v{*machine.state_index("x"), *machine.state_index("y"),
                *machine.state_index("z")};
  api::ExperimentRun run = experiment.launch();

  std::printf("phase 1: 55%%/45%% split, plus a 30%% crash at period 20\n");
  std::printf("%8s %12s %12s %12s\n", "period", "version A", "version B",
              "undecided");
  std::size_t period = 0;
  while (!converged(run.group(), v) && period < 5000) {
    if (period % 20 == 0) report(run.group(), v, period);
    run.advance(10);
    period += 10;
  }
  report(run.group(), v, period);

  // A host can read its running decision variable at any moment:
  std::printf("\nhost 17's decision variable: %s\n\n",
              decision_name(run.group(), v, 17));

  // Phase 2: a new document version lands on 70% of the (alive) replicas.
  // Because the protocol runs forever, it simply re-converges -- the
  // self-stabilization the paper contrasts with one-shot consensus.
  std::printf("phase 2: fresh writes flip 70%% of alive replicas to "
              "version B\n");
  {
    sim::Group& group = run.group();
    std::size_t flipped = 0;
    const std::size_t target = group.total_alive() * 7 / 10;
    for (sim::ProcessId pid = 0; pid < kN && flipped < target; ++pid) {
      if (group.alive(pid) && group.state_of(pid) != v.b) {
        group.transition(pid, v.b);
        ++flipped;
      }
    }
  }
  period = 0;
  while (!converged(run.group(), v) && period < 5000) {
    if (period % 20 == 0) report(run.group(), v, period);
    run.advance(10);
    period += 10;
  }
  report(run.group(), v, period);

  const bool b_won = converged(run.group(), v) && run.group().count(v.a) == 0;
  std::printf("\nfinal agreement: %s (initial majority of the second "
              "round)\n",
              b_won ? "version B" : "version A");
  return b_won ? 0 : 1;
}
