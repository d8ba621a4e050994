#include "core/failure_compensation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>

#include "core/action.hpp"
#include "core/synthesis.hpp"
#include "ode/catalog.hpp"

namespace deproto::core {
namespace {

TEST(FailureFactorTest, Values) {
  EXPECT_DOUBLE_EQ(failure_factor(1, 0.5), 1.0);   // flipping: |T| = 1
  EXPECT_DOUBLE_EQ(failure_factor(2, 0.5), 2.0);   // one probe
  EXPECT_DOUBLE_EQ(failure_factor(3, 0.5), 4.0);   // two probes
  EXPECT_DOUBLE_EQ(failure_factor(2, 0.0), 1.0);   // no loss, no factor
  EXPECT_THROW((void)failure_factor(2, 1.0), std::invalid_argument);
  EXPECT_THROW((void)failure_factor(2, -0.1), std::invalid_argument);
}

TEST(FailureCompensationTest, FlippingCoinsUntouchedBeforeRenormalization) {
  // Synthesis-time compensation multiplies only sampling coins (|T| = 2:
  // ff = 1/(1-f)); the flips (|T| = 1: ff = 1) change only through the
  // shared renormalization of p.
  const auto source = ode::catalog::endemic(4.0, 1.0, 0.01);
  const SynthesisResult out = synthesize(source, {.failure_rate = 0.5});
  // The sampling coin would become 4 * 2 = 8 > 1 -> p = 1/8; flips go
  // from 1 -> 0.125 and 0.01 -> 0.00125.
  EXPECT_NEAR(out.machine.normalizing_p(), 0.125, 1e-12);
  for (const Action& a : out.machine.actions()) {
    if (const auto* flip = std::get_if<FlippingAction>(&a)) {
      EXPECT_LT(flip->coin_bias, 0.2);
    }
    if (const auto* sample = std::get_if<SamplingAction>(&a)) {
      EXPECT_NEAR(sample->coin_bias, 1.0, 1e-12);  // saturated at 1
    }
  }
}

TEST(FailureCompensationTest, NoOpAtZeroLoss) {
  const auto source = ode::catalog::epidemic();
  const ProtocolStateMachine plain = synthesize(source).machine;
  const ProtocolStateMachine out =
      synthesize(source, {.failure_rate = 0.0}).machine;
  EXPECT_DOUBLE_EQ(out.normalizing_p(), plain.normalizing_p());
  const auto& a = std::get<SamplingAction>(out.actions()[0]);
  const auto& b = std::get<SamplingAction>(plain.actions()[0]);
  EXPECT_DOUBLE_EQ(a.coin_bias, b.coin_bias);
}

}  // namespace
}  // namespace deproto::core
