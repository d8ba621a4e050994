#pragma once

// Section 3, "The Effect of Failures": with a group-wide failure rate f per
// connection attempt, every one-time-sampling term T picks up a
// multiplicative factor (1/(1-f))^{|T|-1} relative to the modeled equation.
// core::synthesize compensates by multiplying the corresponding coin bias
// by the same factor when SynthesisOptions::failure_rate is set (shrinking
// the system-wide p if any bias would exceed 1).

namespace deproto::core {

/// (1/(1-f))^{occurrences - 1}. Flipping terms (|T| = 1) get factor 1.
[[nodiscard]] double failure_factor(unsigned occurrences, double f);

}  // namespace deproto::core
