// deproto-lint: the static protocol verifier as a CLI. Checks registered
// scenarios or ScenarioSpec JSON files without running a single period:
// probability-mass conservation, reachability and absorbing-state
// structure, mean-field consistency against the source ODE, fixed-point
// existence and stability, and the spec-level lint rules (see
// analysis/verifier.hpp for the rule catalog).
//
//   deproto-lint <scenario> [<scenario>...]   lint registered scenarios
//   deproto-lint --registry                   lint every registered scenario
//   deproto-lint --spec spec.json             lint a ScenarioSpec file
//
// Options:
//   --exact        additionally build the exact finite-N Markov chain
//                  (analysis/exact_chain.hpp) and report the exact.* rules
//   --exact-n N    population size of the exact chain (default 32)
//   --exact-max-states M
//                  state-space budget C(N+S-1, S-1) must fit (default 20000)
//   --json         machine-readable reports on stdout (one object with a
//                  "reports" array of analysis::Report values)
//   --strict       exit nonzero on warnings too, not just errors
//   --no-suppress  ignore the specs' lint_suppress lists
//   --quiet        per-scenario summary lines only, no findings
//
// Exit codes: 0 = no blocking findings, 1 = error findings (or warnings
// under --strict), 2 = usage / unreadable input.

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "api/registry.hpp"
#include "cli_util.hpp"

namespace {

using deproto::analysis::Finding;
using deproto::analysis::Report;
using deproto::analysis::Severity;
using deproto::api::Json;
using deproto::api::ScenarioSpec;

struct CliOptions {
  std::vector<std::string> scenarios;
  std::vector<std::string> spec_files;
  bool registry = false;
  bool json = false;
  bool strict = false;
  bool no_suppress = false;
  bool quiet = false;
  bool exact = false;
  std::optional<std::size_t> exact_n;  // unset: the analyzer default
  std::optional<std::size_t> exact_max_states;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (<scenario>... | --registry | --spec f.json) "
               "[--json] [--strict] [--no-suppress] [--quiet] [--exact] "
               "[--exact-n N] [--exact-max-states M]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, CliOptions* o) {
  using deproto::cli::kAnyMode;
  using deproto::cli::list_flag;
  using deproto::cli::number_flag;
  using deproto::cli::switch_flag;
  deproto::cli::FlagTable flags({
      list_flag("<scenario>", kAnyMode, &o->scenarios),
      list_flag("--spec", kAnyMode, &o->spec_files),
      switch_flag("--registry", kAnyMode, &o->registry),
      switch_flag("--json", kAnyMode, &o->json),
      switch_flag("--strict", kAnyMode, &o->strict),
      switch_flag("--no-suppress", kAnyMode, &o->no_suppress),
      switch_flag("--quiet", kAnyMode, &o->quiet),
      switch_flag("--exact", kAnyMode, &o->exact),
      number_flag<std::size_t>("--exact-n", kAnyMode, &o->exact_n, 1),
      number_flag<std::size_t>("--exact-max-states", kAnyMode,
                               &o->exact_max_states, 1),
  });
  if (!flags.parse(argc, argv)) return false;
  o->exact = o->exact || o->exact_n || o->exact_max_states;
  return o->registry || !o->scenarios.empty() || !o->spec_files.empty();
}

bool load_spec_file(const std::string& path, ScenarioSpec* out) {
  try {
    *out = ScenarioSpec::from_json(Json::parse(deproto::cli::read_file(path)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  if (out->name.empty()) out->name = path;
  return true;
}

void print_report(const Report& report, bool quiet) {
  if (!quiet) {
    for (const Finding& f : report.findings) {
      std::printf("%s\n", deproto::analysis::to_string(f).c_str());
    }
  }
  std::printf("%s: %zu error%s, %zu warning%s, %zu finding%s suppressed\n",
              report.scenario.empty() ? "(spec)" : report.scenario.c_str(),
              report.errors(), report.errors() == 1 ? "" : "s",
              report.warnings(), report.warnings() == 1 ? "" : "s",
              report.suppressed, report.suppressed == 1 ? "" : "s");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse_args(argc, argv, &opts)) return usage(argv[0]);

  std::vector<ScenarioSpec> specs;
  if (opts.registry) {
    for (const std::string& name : deproto::api::registry_names()) {
      specs.push_back(deproto::api::registry_get(name));
    }
  }
  for (const std::string& name : opts.scenarios) {
    const ScenarioSpec* spec = deproto::api::registry_find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "error: unknown scenario '%s' (try --registry)\n",
                   name.c_str());
      return 2;
    }
    specs.push_back(*spec);
  }
  for (const std::string& path : opts.spec_files) {
    ScenarioSpec spec;
    if (!load_spec_file(path, &spec)) return 2;
    specs.push_back(std::move(spec));
  }

  deproto::analysis::VerifyOptions verify;
  verify.apply_suppressions = !opts.no_suppress;
  verify.exact = opts.exact;
  verify.exact_chain.n = opts.exact_n.value_or(verify.exact_chain.n);
  verify.exact_chain.max_states =
      opts.exact_max_states.value_or(verify.exact_chain.max_states);

  std::size_t errors = 0;
  std::size_t warnings = 0;
  Json reports = Json::array();
  for (const ScenarioSpec& spec : specs) {
    const Report report = deproto::analysis::analyze_spec(spec, verify);
    errors += report.errors();
    warnings += report.warnings();
    if (opts.json) {
      reports.push(report.to_json());
    } else {
      print_report(report, opts.quiet);
    }
  }

  const bool failed = errors > 0 || (opts.strict && warnings > 0);
  if (opts.json) {
    const Json out = Json::object()
                         .set("ok", Json::boolean(!failed))
                         .set("reports", std::move(reports));
    std::printf("%s\n", out.dump(2).c_str());
  } else if (specs.size() > 1) {
    std::printf("linted %zu scenarios: %zu error%s, %zu warning%s\n",
                specs.size(), errors, errors == 1 ? "" : "s", warnings,
                warnings == 1 ? "" : "s");
  }
  return failed ? 1 : 0;
}
