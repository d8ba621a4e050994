#pragma once

// Text format for equation systems, so protocols can be synthesized from a
// plain file (see `deproto-run --ode`). One equation per line:
//
//     x' = -0.4*x*y + 0.05*z      # comments run to end of line
//     dy/dt = 0.4*x*y - 0.1*y
//     z' = 0.1*y - 0.05*z
//
// Variables are declared by appearing on a left-hand side; right-hand
// sides may only use declared variables. Terms are coefficient-times-
// monomial products: [coeff] [* var[^exp]]..., with an optional leading
// sign. Exponents are non-negative integers.

#include <cstddef>
#include <stdexcept>
#include <string>

#include "ode/equation_system.hpp"

namespace deproto::ode {

class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Parse a whole system from text. Throws ParseError on malformed input.
[[nodiscard]] EquationSystem parse_system(const std::string& text);

/// Parse a single right-hand-side expression over the given system's
/// variables (used by tests and interactive tooling).
[[nodiscard]] Polynomial parse_polynomial(const std::string& text,
                                          const EquationSystem& sys);

}  // namespace deproto::ode
