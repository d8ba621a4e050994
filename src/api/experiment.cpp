#include "api/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/verifier.hpp"
#include "core/mean_field.hpp"
#include "sim/churn.hpp"
#include "sim/metrics.hpp"

namespace deproto::api {

namespace {

/// Dominant state / fraction / absorption from the final populations, and
/// the settle time: the start of the longest suffix of `series` over which
/// the dominant count stayed within tolerance of its final value.
ConvergenceSummary summarize_convergence(
    const std::vector<PeriodPoint>& series,
    const std::vector<std::size_t>& final_counts, std::size_t final_alive) {
  ConvergenceSummary summary;
  if (final_counts.empty()) return summary;
  std::size_t best = 0;
  for (std::size_t s = 1; s < final_counts.size(); ++s) {
    if (final_counts[s] > final_counts[best]) best = s;
  }
  summary.dominant_state = best;
  summary.dominant_fraction =
      final_alive == 0 ? 0.0
                       : static_cast<double>(final_counts[best]) /
                             static_cast<double>(final_alive);
  summary.absorbed = final_alive > 0 && final_counts[best] == final_alive;
  const auto final_value = static_cast<double>(final_counts[best]);
  const double tol = std::max(2.0, 0.02 * final_value);
  for (std::size_t i = series.size(); i-- > 0;) {
    if (std::abs(static_cast<double>(series[i].counts[best]) - final_value) >
        tol) {
      break;
    }
    summary.settle_time = series[i].time;
  }
  return summary;
}

}  // namespace

const std::vector<std::size_t>& ExperimentResult::counts_at(
    std::size_t period) const {
  if (period == 0) return initial_counts;
  if (period > series.size()) {
    throw std::out_of_range("ExperimentResult::counts_at: period " +
                            std::to_string(period) + " > " +
                            std::to_string(series.size()));
  }
  return series[period - 1].counts;
}

Json ExperimentResult::to_json(bool include_timing) const {
  Json j = Json::object();
  if (!scenario.empty()) j.set("scenario", Json::string(scenario));
  Json names = Json::array();
  for (const std::string& n : state_names) names.push(Json::string(n));
  j.set("state_names", std::move(names));
  j.set("taxonomy",
        Json::object()
            .set("complete", Json::boolean(taxonomy.complete))
            .set("completely_partitionable",
                 Json::boolean(taxonomy.completely_partitionable))
            .set("restricted_polynomial",
                 Json::boolean(taxonomy.restricted_polynomial))
            .set("detail", Json::string(taxonomy.detail)));
  j.set("p", Json::number(p));
  j.set("mean_field_verified", Json::boolean(mean_field_verified));
  Json note_arr = Json::array();
  for (const std::string& n : notes) note_arr.push(Json::string(n));
  j.set("notes", std::move(note_arr));
  j.set("machine", Json::string(machine_text));
  j.set("initial_counts", json_from_counts(initial_counts));
  // Columnar series: one time array plus one population array per state.
  Json time = Json::array();
  Json alive = Json::array();
  std::vector<Json> cols(state_names.size(), Json::array());
  for (const PeriodPoint& point : series) {
    time.push(Json::number(point.time));
    alive.push(Json::number(point.total_alive));
    for (std::size_t s = 0; s < cols.size(); ++s) {
      cols[s].push(Json::number(point.counts[s]));
    }
  }
  Json columns = Json::array();
  for (Json& column : cols) columns.push(std::move(column));
  j.set("series", Json::object()
                      .set("time", std::move(time))
                      .set("alive", std::move(alive))
                      .set("counts", std::move(columns)));
  j.set("final_counts", json_from_counts(final_counts));
  j.set("final_alive", Json::number(final_alive));
  j.set("tokens", Json::object()
                      .set("generated", Json::number(tokens.generated))
                      .set("delivered", Json::number(tokens.delivered))
                      .set("dropped", Json::number(tokens.dropped)));
  j.set("probes_total", Json::number(probes_total));
  j.set("messages_sent", Json::number(messages_sent));
  j.set("messages_dropped", Json::number(messages_dropped));
  if (net_stats.has_value()) {
    const net::NetStats& s = *net_stats;
    j.set("net",
          Json::object()
              .set("datagrams_sent", Json::number(s.datagrams_sent))
              .set("datagrams_received", Json::number(s.datagrams_received))
              .set("emulated_drops", Json::number(s.emulated_drops))
              .set("probes_sent", Json::number(s.probes_sent))
              .set("probe_timeouts", Json::number(s.probe_timeouts))
              .set("observed_loss", Json::number(s.observed_loss()))
              .set("reordered", Json::number(s.reordered))
              .set("duplicates", Json::number(s.duplicates))
              .set("decode_errors", Json::number(s.decode_errors))
              .set("joins", Json::number(s.joins))
              .set("leaves", Json::number(s.leaves))
              .set("rtt_samples", Json::number(s.rtt_samples))
              .set("rtt_ms_min", Json::number(s.rtt_ms_min))
              .set("rtt_ms_max", Json::number(s.rtt_ms_max))
              .set("rtt_ms_mean", Json::number(s.rtt_ms_mean())));
  }
  j.set("convergence",
        Json::object()
            .set("dominant_state", Json::number(convergence.dominant_state))
            .set("dominant_fraction",
                 Json::number(convergence.dominant_fraction))
            .set("absorbed", Json::boolean(convergence.absorbed))
            .set("settle_time", Json::number(convergence.settle_time)));
  if (include_timing && elapsed_seconds > 0.0) {
    j.set("elapsed_seconds", Json::number(elapsed_seconds));
  }
  return j;
}

ExperimentResult ExperimentResult::from_json(const Json& j) {
  ExperimentResult r;
  r.scenario = j.get_or("scenario", std::string());
  for (const Json& e : j.at("state_names").elements()) {
    r.state_names.push_back(e.as_string());
  }
  const Json& tax = j.at("taxonomy");
  r.taxonomy.complete = tax.get_or("complete", false);
  r.taxonomy.completely_partitionable =
      tax.get_or("completely_partitionable", false);
  r.taxonomy.restricted_polynomial =
      tax.get_or("restricted_polynomial", false);
  r.taxonomy.detail = tax.get_or("detail", std::string());
  r.p = j.get_or("p", 1.0);
  r.mean_field_verified = j.get_or("mean_field_verified", false);
  if (j.contains("notes")) {
    for (const Json& e : j.at("notes").elements()) {
      r.notes.push_back(e.as_string());
    }
  }
  r.machine_text = j.get_or("machine", std::string());
  r.initial_counts = counts_from_json(j.at("initial_counts"));
  const Json& series = j.at("series");
  const Json::Array& time = series.at("time").elements();
  const Json::Array& alive = series.at("alive").elements();
  const Json::Array& columns = series.at("counts").elements();
  for (std::size_t i = 0; i < time.size(); ++i) {
    PeriodPoint point;
    point.time = time[i].as_number();
    point.total_alive = alive[i].as_size();
    point.counts.reserve(columns.size());
    for (const Json& column : columns) {
      point.counts.push_back(column.elements().at(i).as_size());
    }
    r.series.push_back(std::move(point));
  }
  r.final_counts = counts_from_json(j.at("final_counts"));
  r.final_alive = j.at("final_alive").as_size();
  if (j.contains("tokens")) {
    const Json& t = j.at("tokens");
    r.tokens.generated = t.at("generated").as_u64();
    r.tokens.delivered = t.at("delivered").as_u64();
    r.tokens.dropped = t.at("dropped").as_u64();
  }
  if (j.contains("probes_total")) {
    r.probes_total = j.at("probes_total").as_u64();
  }
  if (j.contains("messages_sent")) {
    r.messages_sent = j.at("messages_sent").as_u64();
  }
  if (j.contains("messages_dropped")) {
    r.messages_dropped = j.at("messages_dropped").as_u64();
  }
  if (j.contains("net")) {
    const Json& s = j.at("net");
    const auto u64 = [&s](const char* key) -> std::uint64_t {
      return s.contains(key) ? s.at(key).as_u64() : 0;
    };
    net::NetStats stats;
    stats.datagrams_sent = u64("datagrams_sent");
    stats.datagrams_received = u64("datagrams_received");
    stats.emulated_drops = u64("emulated_drops");
    stats.probes_sent = u64("probes_sent");
    stats.probe_timeouts = u64("probe_timeouts");
    stats.reordered = u64("reordered");
    stats.duplicates = u64("duplicates");
    stats.decode_errors = u64("decode_errors");
    stats.joins = u64("joins");
    stats.leaves = u64("leaves");
    stats.rtt_samples = u64("rtt_samples");
    stats.rtt_ms_min = s.get_or("rtt_ms_min", 0.0);
    stats.rtt_ms_max = s.get_or("rtt_ms_max", 0.0);
    // The document carries the mean; the sum reconstructs so a reloaded
    // result reports the same rtt_ms_mean().
    stats.rtt_ms_sum =
        s.get_or("rtt_ms_mean", 0.0) * static_cast<double>(stats.rtt_samples);
    r.net_stats = stats;
  }
  r.elapsed_seconds = j.get_or("elapsed_seconds", 0.0);
  if (j.contains("convergence")) {
    const Json& c = j.at("convergence");
    r.convergence.dominant_state = c.at("dominant_state").as_size();
    r.convergence.dominant_fraction = c.get_or("dominant_fraction", 0.0);
    r.convergence.absorbed = c.get_or("absorbed", false);
    r.convergence.settle_time = c.get_or("settle_time", -1.0);
  }
  return r;
}

Experiment::Experiment(ScenarioSpec spec) : spec_(std::move(spec)) {}

const Experiment::Resolved& Experiment::resolved() {
  if (!resolved_.has_value()) {
    ode::EquationSystem source = spec_.resolve_source();
    ode::TaxonomyReport taxonomy = ode::classify(source);
    resolved_.emplace(Resolved{std::move(source), std::move(taxonomy)});
  }
  return *resolved_;
}

const Experiment::Artifacts& Experiment::artifacts() {
  if (!artifacts_.has_value()) {
    const Resolved& res = resolved();
    core::SynthesisResult synthesis =
        core::synthesize(res.source, spec_.synthesis);
    const bool verified = core::verifies_equivalence(
        synthesis.machine, synthesis.source, spec_.synthesis.failure_rate);
    artifacts_.emplace(Artifacts{res.source, res.taxonomy,
                                 std::move(synthesis), verified});
  }
  return *artifacts_;
}

ExperimentRun::ExperimentRun(Experiment& owner) : owner_(&owner) {}

sim::Group& ExperimentRun::group() {
  if (!simulator_->per_node()) {
    throw SpecError(
        "backend count has no per-node group: per-node-identity features "
        "(group access, host history, token tracing) need backend sync or "
        "event");
  }
  return simulator_->group();
}

ExperimentRun Experiment::launch() {
  try {
    return launch_impl();
  } catch (const std::invalid_argument& e) {
    // Simulator-level validation (seed counts vs n, failure fractions,
    // churn rates) surfaces under the facade's documented error type.
    throw SpecError(e.what());
  }
}

ExperimentRun Experiment::launch_impl() {
  // Backend::Auto resolves here: count at or above the crossover N, sync
  // below it.
  const Backend backend = resolve_backend(spec_.backend, spec_.n);
  // Checked before any per-node allocation: a per-node backend gives every
  // process a sim::ProcessId, so a larger n cannot even be addressed.
  if ((backend == Backend::Sync || backend == Backend::Event) &&
      spec_.n > sim::kMaxGroupSize) {
    throw SpecError("n = " + std::to_string(spec_.n) + " exceeds the " +
                    std::to_string(sim::kMaxGroupSize) +
                    " processes a per-node backend (" + backend_name(backend) +
                    ") can address; larger populations need backend count");
  }
  // Parsing validates the runtime, the clock drift and the fault plan
  // already; a spec built in code or by a sweep axis reaches here
  // unchecked.
  validate_runtime(spec_.runtime);
  validate_clock_drift(spec_.clock_drift);
  spec_.faults.validate();
  if (spec_.runtime.verify_static || spec_.runtime.verify_exact) {
    // Opt-in pre-flight: refuse to stand up a backend for a machine or
    // spec the static verifier rejects. Warnings and infos pass; they are
    // deproto-lint's concern, not a launch blocker -- with one exception:
    // under verify_exact an exact.transient-trap also blocks, because the
    // explicit-state chain has *proved* the finite population is absorbed
    // somewhere the mean field never predicted, and launching would just
    // reproduce that trap empirically.
    analysis::VerifyOptions vopts;
    vopts.exact = spec_.runtime.verify_exact;
    const analysis::Report lint = analysis::analyze_spec(spec_, vopts);
    std::string msg;
    for (const analysis::Finding& f : lint.findings) {
      const bool blocks =
          f.severity == analysis::Severity::Error ||
          (spec_.runtime.verify_exact && f.rule == "exact.transient-trap");
      if (!blocks) continue;
      msg += "; " + f.rule + " (" + f.location + "): " + f.message;
    }
    if (!msg.empty()) {
      std::string head = spec_.runtime.verify_exact
                             ? "exact verification failed"
                             : "static verification failed";
      if (!spec_.name.empty()) head += " for " + spec_.name;
      throw SpecError(head + msg);
    }
  }
  const Artifacts& art = artifacts();
  const core::ProtocolStateMachine& machine = art.synthesis.machine;
  const std::size_t m = machine.num_states();

  ExperimentRun run(*this);
  // Seeding counts: the spec's, or an even spread of n/m per state. The
  // division remainder is deliberately NOT seeded -- those processes stay
  // in state 0 without a self-transition, exactly like the legacy wiring,
  // so fixed-seed runs stay bit-identical across the refactor.
  std::vector<std::size_t> seed_counts = spec_.initial_counts;
  if (seed_counts.empty()) seed_counts.assign(m, spec_.n / m);
  if (seed_counts.size() > m) {
    throw SpecError("initial_counts has more entries than machine states");
  }

  // Stand up the backend. This is the only backend-specific block: from
  // here on the experiment is programmed purely through sim::Simulator.
  if (backend == Backend::Sync) {
    run.executor_ =
        std::make_unique<sim::MachineExecutor>(machine, spec_.runtime);
    run.simulator_ = std::make_unique<sim::SyncSimulator>(
        spec_.n, *run.executor_, spec_.seed);
  } else if (backend == Backend::Event) {
    sim::EventSimOptions options;
    options.network.loss = spec_.runtime.message_loss;
    options.network.latency_min = spec_.network.latency_min;
    options.network.latency_max = spec_.network.latency_max;
    options.clock_drift = spec_.clock_drift;
    options.tokens = spec_.runtime.tokens;
    auto event = std::make_unique<sim::EventSimulator>(
        spec_.n, machine, spec_.seed, options);
    run.event_ = event.get();
    run.simulator_ = std::move(event);
  } else if (backend == Backend::Net) {
    if (spec_.n > net::NetSimulator::kMaxNodes) {
      throw SpecError(
          "backend net binds one real UDP socket per node: n = " +
          std::to_string(spec_.n) + " exceeds the ceiling of " +
          std::to_string(net::NetSimulator::kMaxNodes) +
          "; gigascale populations need backend count (or auto)");
    }
    net::NetSimOptions options;
    options.period_ms = spec_.network.period_ms;
    options.probe_timeout = spec_.network.probe_timeout;
    options.message_loss = spec_.runtime.message_loss;
    options.clock_drift = spec_.clock_drift;
    options.tokens = spec_.runtime.tokens;
    auto net = std::make_unique<net::NetSimulator>(spec_.n, machine,
                                                   spec_.seed, options);
    run.net_ = net.get();
    run.simulator_ = std::move(net);
  } else {
    sim::CountSimOptions options;
    options.message_loss = spec_.runtime.message_loss;
    options.tokens = spec_.runtime.tokens;
    auto count = std::make_unique<sim::CountSimulator>(
        spec_.n, machine, spec_.seed, options);
    run.count_ = count.get();
    run.simulator_ = std::move(count);
  }

  // One scheduling surface for every fault-plan field, on either backend.
  sim::Simulator& simulator = *run.simulator_;
  simulator.seed_states(seed_counts);
  for (const sim::MassiveFailure& f : spec_.faults.massive_failures) {
    simulator.schedule_massive_failure(f.time, f.fraction);
  }
  if (spec_.faults.crash_recovery.crash_prob > 0.0) {
    simulator.set_crash_recovery(
        spec_.faults.crash_recovery.crash_prob,
        spec_.faults.crash_recovery.mean_downtime_periods);
  }
  if (spec_.faults.churn.enabled) {
    const ChurnSpec& churn = spec_.faults.churn;
    sim::Rng churn_rng(churn.seed);
    const sim::ChurnTrace trace = sim::ChurnTrace::synthetic_overnet(
        spec_.n, churn.hours, churn.min_rate, churn.max_rate,
        churn.mean_downtime_hours, churn_rng);
    simulator.attach_churn(trace, churn.periods_per_hour);
  }
  // Report the populations actually materialized (the even-spread
  // remainder lands in state 0). The count accessors are defined on every
  // backend, unlike group().
  run.initial_counts_.clear();
  for (std::size_t s = 0; s < simulator.num_states(); ++s) {
    run.initial_counts_.push_back(simulator.count(s));
  }
  return run;
}

void ExperimentRun::advance(std::size_t periods) {
  simulator_->run_for(static_cast<double>(periods));
  advanced_ += periods;
}

ExperimentResult ExperimentRun::finish() {
  const Experiment::Artifacts& art = owner_->artifacts();
  const ScenarioSpec& spec = owner_->spec();

  ExperimentResult result;
  result.scenario = spec.name;
  result.state_names = art.synthesis.machine.state_names();
  result.taxonomy = art.taxonomy;
  result.taxonomy.partition.clear();  // witness is not part of the result
  result.p = art.synthesis.p;
  result.mean_field_verified = art.mean_field_verified;
  result.notes = art.synthesis.notes;
  result.machine_text = art.synthesis.machine.to_string();
  result.initial_counts = initial_counts_;

  // One series point per period on every backend. The event and net
  // simulators additionally sample at t = 0; that point duplicates
  // initial_counts, so it is skipped here.
  const std::vector<sim::PeriodSample>& samples =
      simulator_->metrics().samples();
  for (std::size_t i = (event_ != nullptr || net_ != nullptr ? 1 : 0);
       i < samples.size(); ++i) {
    const sim::PeriodSample& sample = samples[i];
    result.series.push_back(PeriodPoint{sample.time, sample.alive_in_state,
                                        sample.total_alive});
  }

  for (std::size_t s = 0; s < simulator_->num_states(); ++s) {
    result.final_counts.push_back(simulator_->count(s));
  }
  result.final_alive = simulator_->total_alive();

  if (executor_) {
    result.tokens = executor_->token_stats();
    result.probes_total = executor_->probes_total();
  } else if (count_ != nullptr) {
    result.tokens = count_->token_stats();
    result.probes_total = count_->probes_total();
  } else if (net_ != nullptr) {
    const net::NetStats stats = net_->net_stats();
    result.tokens = net_->token_stats();
    result.probes_total = stats.probes_sent;
    // The shared message columns carry the measured equivalents of the
    // event backend's synthetic counters (datagrams that reached the
    // kernel; probes whose reply never arrived), so a sweep can put
    // simulated and real loss side by side. The full measured detail
    // rides in result.net_stats.
    result.messages_sent = stats.datagrams_sent;
    result.messages_dropped = stats.probe_timeouts;
    result.net_stats = stats;
  } else {
    result.messages_sent = event_->network().sent();
    result.messages_dropped = event_->network().dropped();
  }
  result.convergence = summarize_convergence(
      result.series, result.final_counts, result.final_alive);
  return result;
}

ExperimentResult Experiment::run() {
  const auto start = std::chrono::steady_clock::now();
  ExperimentRun active = launch();
  active.advance(spec_.periods);
  ExperimentResult result = active.finish();
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace deproto::api
