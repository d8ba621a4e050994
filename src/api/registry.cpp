#include "api/registry.hpp"

#include <cstddef>
#include <initializer_list>
#include <utility>

namespace deproto::api {

namespace {

ScenarioSpec epidemic_base() {
  ScenarioSpec spec;
  spec.name = "epidemic";
  spec.description =
      "Eq. (0) pull epidemic: one infective converts 10,000 processes in "
      "O(log N) periods (the quickstart experiment)";
  spec.source.catalog = "epidemic";
  spec.n = 10000;
  spec.periods = 26;
  spec.seed = 2004;
  spec.initial_counts = {9999, 1};
  return spec;
}

ScenarioSpec endemic_base() {
  ScenarioSpec spec;
  spec.name = "endemic";
  spec.description =
      "Eq. (1) endemic replication (Figure 1 push-pull variant, beta=4, "
      "gamma=0.2, alpha=0.05): the stash population self-stabilizes";
  spec.source.catalog = "endemic";
  spec.source.params = {4.0, 0.2, 0.05};
  spec.synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
  spec.n = 5000;
  spec.periods = 300;
  spec.seed = 21;
  // Near eq. (2): x* = gamma/beta = 0.05, y* = (1-x*)/(1+gamma/alpha) = 0.19.
  spec.initial_counts = {250, 950, 3800};
  return spec;
}

ScenarioSpec lv_base() {
  ScenarioSpec spec;
  spec.name = "lv-majority";
  spec.description =
      "Eq. (7) Lotka-Volterra majority vote (p=0.05): a 60/40 split "
      "converges to the initial majority";
  spec.source.catalog = "lv";
  spec.synthesis.p = 0.05;
  spec.n = 10000;
  spec.periods = 400;
  spec.seed = 1234;
  spec.initial_counts = {6000, 4000, 0};
  return spec;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> specs;

  specs.push_back(epidemic_base());

  {
    ScenarioSpec spec = epidemic_base();
    spec.name = "epidemic-lossy";
    spec.description =
        "Pull epidemic over a 20% lossy network with Section 3 coin "
        "compensation: same dynamics as the loss-free run";
    spec.synthesis.failure_rate = 0.2;
    spec.runtime.message_loss = 0.2;
    spec.periods = 40;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = epidemic_base();
    spec.name = "epidemic-event";
    spec.description =
        "Pull epidemic on the fully asynchronous event backend: per-process "
        "clocks with 5% drift, 5% message loss, no global rounds";
    spec.backend = Backend::Event;
    spec.clock_drift = 0.05;
    spec.runtime.message_loss = 0.05;
    spec.n = 2000;
    spec.periods = 30;
    spec.seed = 7;
    spec.initial_counts = {1999, 1};
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = epidemic_base();
    spec.name = "epidemic-net";
    spec.description =
        "Pull epidemic over real UDP sockets on loopback: 128 nodes, one "
        "socket each, probes as datagrams, loss/RTT measured not simulated";
    spec.backend = Backend::Net;
    spec.n = 128;
    spec.periods = 24;
    spec.seed = 7;
    spec.initial_counts = {127, 1};
    spec.network.period_ms = 10.0;  // ~0.25 s of wall clock per run
    // Short periods shrink the probe deadline to a few ms; on a loaded CI
    // host that reads as loss. Two periods of grace keeps the run honest.
    spec.network.probe_timeout = 2.0;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = epidemic_base();
    spec.name = "epidemic-count";
    spec.description =
        "The pull epidemic at N = 10^6 on the count backend: one infective "
        "converts a million processes in O(states) work per period";
    spec.backend = Backend::Count;
    spec.n = 1000000;
    spec.periods = 32;
    spec.initial_counts = {999999, 1};
    specs.push_back(std::move(spec));
  }

  specs.push_back(lv_base());

  {
    ScenarioSpec spec = lv_base();
    spec.name = "lv-majority-count";
    spec.description =
        "Figure 11 at gigascale: LV majority vote with N = 10^6 on the "
        "count backend, a 60/40 split converging in seconds";
    spec.backend = Backend::Count;
    spec.n = 1000000;
    spec.initial_counts = {600000, 400000, 0};
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = lv_base();
    spec.name = "lv-majority-net";
    spec.description =
        "LV majority vote over real loopback UDP: a 60/40 split of 128 "
        "gossiping sockets converges to the initial majority";
    spec.backend = Backend::Net;
    spec.n = 128;
    spec.periods = 150;
    spec.seed = 1234;
    spec.initial_counts = {77, 51, 0};
    spec.network.period_ms = 5.0;  // ~0.75 s of wall clock per run
    spec.network.probe_timeout = 2.0;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = lv_base();
    spec.name = "lv-majority-failure";
    spec.description =
        "LV majority vote losing half the group at period 100 (Figure 12): "
        "the surviving majority still wins";
    spec.faults.massive_failures.push_back(sim::MassiveFailure{100, 0.5});
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = lv_base();
    spec.name = "lv-majority-failure-event";
    spec.description =
        "Figure 12's massive failure replayed asynchronously: drifting "
        "clocks, real messages, half the group crashes at t=100";
    spec.backend = Backend::Event;
    spec.runtime.message_loss = 0.02;
    spec.n = 2000;
    spec.periods = 300;
    spec.seed = 97;
    spec.initial_counts = {1200, 800, 0};
    spec.faults.massive_failures.push_back(sim::MassiveFailure{100, 0.5});
    specs.push_back(std::move(spec));
  }

  specs.push_back(endemic_base());

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-net";
    spec.description =
        "Endemic replication over real loopback UDP: push-pull datagrams "
        "hold the stash population at the eq. (2) equilibrium";
    spec.backend = Backend::Net;
    spec.n = 128;
    spec.periods = 150;
    spec.seed = 21;
    spec.initial_counts = {7, 24, 97};
    spec.network.period_ms = 5.0;  // ~0.75 s of wall clock per run
    spec.network.probe_timeout = 2.0;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-massive-failure";
    spec.description =
        "Endemic replication losing 50% of all processes at period 150 "
        "(Figure 5): the stash population recovers to equilibrium";
    spec.faults.massive_failures.push_back(sim::MassiveFailure{150, 0.5});
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-massive-failure-event";
    spec.description =
        "Figure 5's massive failure on the event backend: the stash "
        "population re-stabilizes with no global rounds";
    spec.backend = Backend::Event;
    spec.n = 2000;
    spec.periods = 300;
    spec.seed = 23;
    spec.initial_counts = {100, 380, 1520};
    spec.faults.massive_failures.push_back(sim::MassiveFailure{150, 0.5});
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-massive-failure-count";
    spec.description =
        "Figure 5's massive failure at N = 10^6 on the count backend: "
        "half a million anonymous crashes, equilibrium recovery in seconds";
    spec.backend = Backend::Count;
    spec.n = 1000000;
    spec.initial_counts = {50000, 190000, 760000};
    spec.faults.massive_failures.push_back(sim::MassiveFailure{150, 0.5});
    // The whole point of this scenario is faults on the count backend;
    // the anonymous-victim approximation the verifier warns about is the
    // accepted trade (tests pin its accuracy against the sync backend).
    spec.lint_suppress = {"spec.count-anonymous-faults"};
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-crash-recovery";
    spec.description =
        "Endemic replication under background crash-recovery: 1% of hosts "
        "crash per period, exponential downtime with mean 10 periods";
    spec.faults.crash_recovery.crash_prob = 0.01;
    spec.faults.crash_recovery.mean_downtime_periods = 10.0;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-crash-recovery-event";
    spec.description =
        "The same background crash-recovery process driven by event-time "
        "timers on the asynchronous backend";
    spec.backend = Backend::Event;
    spec.n = 2000;
    spec.periods = 300;
    spec.seed = 29;
    spec.initial_counts = {100, 380, 1520};
    spec.faults.crash_recovery.crash_prob = 0.01;
    spec.faults.crash_recovery.mean_downtime_periods = 10.0;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-churn";
    spec.description =
        "Endemic replication under synthetic Overnet churn (Figures 9-10): "
        "5-15% hourly churn, 10 periods per hour, 30 hours";
    spec.faults.churn.enabled = true;
    spec.faults.churn.hours = 30.0;
    spec.faults.churn.min_rate = 0.05;
    spec.faults.churn.max_rate = 0.15;
    spec.faults.churn.mean_downtime_hours = 0.5;
    spec.faults.churn.seed = 7;
    spec.faults.churn.periods_per_hour = 10.0;
    specs.push_back(std::move(spec));
  }

  {
    ScenarioSpec spec = endemic_base();
    spec.name = "endemic-churn-event";
    spec.description =
        "The Overnet churn trace played back in event time (Figures 9-10 "
        "asynchronously): departures and rejoins at fractional periods";
    spec.backend = Backend::Event;
    spec.n = 2000;
    spec.periods = 300;
    spec.seed = 31;
    spec.initial_counts = {100, 380, 1520};
    spec.faults.churn.enabled = true;
    spec.faults.churn.hours = 30.0;
    spec.faults.churn.min_rate = 0.05;
    spec.faults.churn.max_rate = 0.15;
    spec.faults.churn.mean_downtime_hours = 0.5;
    spec.faults.churn.seed = 7;
    spec.faults.churn.periods_per_hour = 10.0;
    specs.push_back(std::move(spec));
  }

  return specs;
}

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> specs = build_registry();
  return specs;
}

std::vector<Json> axis_values(std::initializer_list<double> values) {
  std::vector<Json> out;
  for (const double v : values) out.push_back(Json::number(v));
  return out;
}

std::vector<SweepSpec> build_sweep_registry() {
  std::vector<SweepSpec> sweeps;

  {
    // Figure 7: analysis accuracy vs N. Seeds zipped with N (seed 7 + N)
    // so each point is its own independent run of the b = 2 endemic
    // system.
    SweepSpec sweep;
    sweep.name = "fig7-accuracy-vs-n";
    sweep.description =
        "Figure 7 accuracy-vs-N: endemic (b=2, gamma=0.1, alpha=0.001) at "
        "N in {12500..100000}; measured equilibrium vs eq. (2)";
    ScenarioSpec base;
    base.name = "fig7-endemic";
    base.source.catalog = "endemic";
    base.source.params = {4.0, 0.1, 0.001};
    base.synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
    base.n = 12500;
    base.periods = 2200;  // 200 warmup + the paper's 2000-period window
    base.seed = 7 + 12500;
    // Seed at the eq. (2) equilibrium: x* = gamma/beta, y* = (1 - x*) /
    // (1 + gamma/alpha); scaled_to keeps the proportions along the N axis.
    const double x_star = 0.1 / 4.0;
    const double y_star = (1.0 - x_star) / (1.0 + 0.1 / 0.001);
    const auto rx = static_cast<std::size_t>(x_star * 12500.0);
    const auto sy = static_cast<std::size_t>(y_star * 12500.0);
    base.initial_counts = {rx, sy, 12500 - rx - sy};
    sweep.base = std::move(base);
    sweep.mode = SweepMode::Zip;
    sweep.axes.push_back(
        SweepAxis{"n", axis_values({12500, 25000, 50000, 100000})});
    sweep.axes.push_back(
        SweepAxis{"seed", axis_values({12507, 25007, 50007, 100007})});
    sweep.replicates = 1;
    sweeps.push_back(std::move(sweep));
  }

  {
    // Figure 11: LV majority convergence vs N (p = 0.01, 60/40 split).
    SweepSpec sweep;
    sweep.name = "fig11-convergence-vs-n";
    sweep.description =
        "Figure 11 convergence-vs-N: LV majority (p=0.01, 60/40 split) at "
        "N in {10000..100000}, 3 replicates per point";
    ScenarioSpec base;
    base.name = "fig11-lv";
    base.source.catalog = "lv";
    base.synthesis.p = 0.01;
    base.n = 10000;
    base.periods = 1000;
    base.seed = 11;
    base.initial_counts = {6000, 4000, 0};
    sweep.base = std::move(base);
    sweep.axes.push_back(
        SweepAxis{"n", axis_values({10000, 20000, 50000, 100000})});
    sweep.replicates = 3;
    sweeps.push_back(std::move(sweep));
  }

  {
    // Figures 9-10: endemic replication as the hourly churn rate climbs.
    // min/max churn rates move together (zipped), keeping the synthetic
    // Overnet band 10 points wide.
    SweepSpec sweep;
    sweep.name = "fig9-10-churn-rate";
    sweep.description =
        "Figures 9-10 churn-rate sweep: endemic replication under "
        "5-15% .. 15-25% hourly churn, 3 replicates per point";
    sweep.base = registry_get("endemic-churn");
    sweep.mode = SweepMode::Zip;
    sweep.axes.push_back(
        SweepAxis{"faults.churn.min_rate", axis_values({0.05, 0.10, 0.15})});
    sweep.axes.push_back(
        SweepAxis{"faults.churn.max_rate", axis_values({0.15, 0.20, 0.25})});
    sweep.replicates = 3;
    sweeps.push_back(std::move(sweep));
  }

  {
    // The CI-sized preset: small epidemic runs across N and both
    // backends. tools/CMakeLists.txt runs it with --threads 2 as the
    // sweep smoke test.
    SweepSpec sweep;
    sweep.name = "smoke-epidemic-scaling";
    sweep.description =
        "CI smoke sweep: the pull epidemic at N in {200, 300} on both "
        "backends, 2 replicates (8 quick jobs)";
    sweep.base = registry_get("epidemic").scaled_to(300);
    sweep.base.periods = 12;
    sweep.axes.push_back(SweepAxis{"n", axis_values({200, 300})});
    {
      SweepAxis backend;
      backend.field = "backend";
      backend.values.push_back(Json::string("sync"));
      backend.values.push_back(Json::string("event"));
      sweep.axes.push_back(std::move(backend));
    }
    sweep.replicates = 2;
    sweeps.push_back(std::move(sweep));
  }

  return sweeps;
}

const std::vector<SweepSpec>& sweep_registry() {
  static const std::vector<SweepSpec> sweeps = build_sweep_registry();
  return sweeps;
}

}  // namespace

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const ScenarioSpec& spec : registry()) names.push_back(spec.name);
  return names;
}

const ScenarioSpec* registry_find(const std::string& name) {
  for (const ScenarioSpec& spec : registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ScenarioSpec registry_get(const std::string& name) {
  if (const ScenarioSpec* spec = registry_find(name)) return *spec;
  throw SpecError("unknown scenario: " + name +
                  " (deproto-run --list shows the registry)");
}

std::vector<std::string> sweep_registry_names() {
  std::vector<std::string> names;
  names.reserve(sweep_registry().size());
  for (const SweepSpec& sweep : sweep_registry()) {
    names.push_back(sweep.name);
  }
  return names;
}

const SweepSpec* sweep_registry_find(const std::string& name) {
  for (const SweepSpec& sweep : sweep_registry()) {
    if (sweep.name == name) return &sweep;
  }
  return nullptr;
}

SweepSpec sweep_registry_get(const std::string& name) {
  if (const SweepSpec* sweep = sweep_registry_find(name)) return *sweep;
  throw SpecError("unknown sweep preset: " + name +
                  " (deproto-run --list shows the presets)");
}

}  // namespace deproto::api
