#pragma once

// The fixed per-job metric vector that SuiteRunner extracts after each
// job and folds into per-point aggregates. One definition, because
// per-point aggregation assumes every replicate of a point yields the same
// key sequence.

#include <string>
#include <utility>
#include <vector>

#include "api/experiment.hpp"

namespace deproto::api::detail {

/// The metric vector (name, value) extracted from one successful result,
/// in a fixed deterministic order: settle_time, dominant_fraction,
/// absorbed, final_alive, final_fraction_<state>..., probes_total,
/// tokens_*, messages_*. Never reads result.series, so it can run after
/// the series was dropped.
[[nodiscard]] std::vector<std::pair<std::string, double>> result_metrics(
    const ExperimentResult& result);

}  // namespace deproto::api::detail
