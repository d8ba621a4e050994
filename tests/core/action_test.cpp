#include "core/action.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace deproto::core {
namespace {

const std::vector<std::string> kStates{"x", "y", "z"};

TEST(ActionTest, FlippingBasics) {
  FlippingAction a;
  a.from_state = 1;
  a.to_state = 2;
  a.coin_bias = 0.25;
  const Action action = a;
  EXPECT_EQ(executor_state(action), 1U);
  EXPECT_EQ(messages_per_period(action), 0U);  // flipping is local
  EXPECT_NE(to_string(action, kStates).find("flip"), std::string::npos);
}

TEST(ActionTest, SamplingMessageCount) {
  // Term -c x^2 y z in f_x: i_x - 1 = 1 same-state samples plus targets
  // {y, z} => 3 probes per period.
  SamplingAction a;
  a.from_state = 0;
  a.to_state = 2;
  a.same_state_samples = 1;
  a.target_states = {1, 2};
  const Action action = a;
  EXPECT_EQ(executor_state(action), 0U);
  EXPECT_EQ(messages_per_period(action), 3U);
}

TEST(ActionTest, TokenizingCountsHandoffMessage) {
  TokenizingAction a;
  a.executor_state = 1;
  a.token_state = 0;
  a.to_state = 1;
  a.same_state_samples = 0;
  a.target_states = {};
  const Action action = a;
  EXPECT_EQ(executor_state(action), 1U);
  EXPECT_EQ(messages_per_period(action), 1U);  // the token itself
  EXPECT_NE(to_string(action, kStates).find("token"), std::string::npos);
}

TEST(ActionTest, PushAndPullFanout) {
  PushAction push;
  push.executor_state = 1;
  push.target_state = 0;
  push.to_state = 1;
  push.fanout = 4;
  EXPECT_EQ(messages_per_period(Action{push}), 4U);
  EXPECT_EQ(executor_state(Action{push}), 1U);

  AnyOfSamplingAction pull;
  pull.from_state = 0;
  pull.match_state = 1;
  pull.to_state = 1;
  pull.fanout = 4;
  EXPECT_EQ(messages_per_period(Action{pull}), 4U);
  EXPECT_EQ(executor_state(Action{pull}), 0U);
}

TEST(ActionTest, ToStringNamesStates) {
  SamplingAction a;
  a.from_state = 0;
  a.to_state = 2;
  a.target_states = {1};
  a.coin_bias = 0.03;
  const std::string text = to_string(Action{a}, kStates);
  EXPECT_NE(text.find("[x]"), std::string::npos);
  EXPECT_NE(text.find("-> z"), std::string::npos);
}

constexpr std::optional<std::size_t> kLost = std::nullopt;

TEST(ActionTest, ProbeRuleCountsProbes) {
  SamplingAction sample;
  sample.same_state_samples = 2;
  sample.target_states = {1, 2};
  EXPECT_EQ(probe_rule(Action{sample}).probes, 4U);
  EXPECT_FALSE(probe_rule(Action{sample}).fires);

  TokenizingAction token;
  token.same_state_samples = 0;
  token.target_states = {};
  EXPECT_EQ(probe_rule(Action{token}).probes, 0U);  // the token is no probe
  token.target_states = {2};
  EXPECT_EQ(probe_rule(Action{token}).probes, 1U);

  AnyOfSamplingAction pull;
  pull.fanout = 3;
  EXPECT_EQ(probe_rule(Action{pull}).probes, 3U);

  EXPECT_EQ(probe_rule(Action{FlippingAction{}}).probes, 0U);
  PushAction push;
  push.fanout = 5;
  EXPECT_EQ(probe_rule(Action{push}).probes, 0U);  // pushes are not probes
}

TEST(ActionTest, ProbeRuleSamplingMatchesPatternInOrder) {
  // Term -c x^2 y z in f_x: one same-state sample, then y, then z.
  SamplingAction a;
  a.from_state = 0;
  a.same_state_samples = 1;
  a.target_states = {1, 2};
  const Action action = a;
  using R = ProbeReplies;
  EXPECT_TRUE(probe_rule(action, 0, R{0, 1, 2}).fires);
  EXPECT_FALSE(probe_rule(action, 0, R{0, 2, 1}).fires);  // order matters
  EXPECT_FALSE(probe_rule(action, 0, R{1, 1, 2}).fires);
  EXPECT_FALSE(probe_rule(action, 0, R{0, kLost, 2}).fires);
  EXPECT_FALSE(probe_rule(action, 0, R{0, 1}).fires);  // a reply missing
  EXPECT_FALSE(probe_rule(action, 0, R{0, 1, 2, 2}).fires);
  EXPECT_EQ(probe_rule(action, 0, R{0, 1, 2}).probes, 3U);
}

TEST(ActionTest, ProbeRuleSamplingNeedsExecutorStillInFromState) {
  SamplingAction a;
  a.from_state = 1;
  a.target_states = {0};
  const Action action = a;
  const ProbeReplies replies{0};
  EXPECT_TRUE(probe_rule(action, 1, replies).fires);
  EXPECT_FALSE(probe_rule(action, 2, replies).fires);      // moved away
  EXPECT_FALSE(probe_rule(action, kLost, replies).fires);  // crashed
}

TEST(ActionTest, ProbeRuleTokenizingIgnoresExecutorState) {
  // The token, not the executor, makes the move: a pattern over
  // executor_state fires even if the executor left it or crashed.
  TokenizingAction a;
  a.executor_state = 1;
  a.token_state = 0;
  a.same_state_samples = 1;
  a.target_states = {2};
  const Action action = a;
  using R = ProbeReplies;
  EXPECT_TRUE(probe_rule(action, 1, R{1, 2}).fires);
  EXPECT_TRUE(probe_rule(action, 0, R{1, 2}).fires);
  EXPECT_TRUE(probe_rule(action, kLost, R{1, 2}).fires);
  EXPECT_FALSE(probe_rule(action, 1, R{0, 2}).fires);  // token_state != w
  EXPECT_FALSE(probe_rule(action, 1, R{1, kLost}).fires);
  EXPECT_FALSE(probe_rule(action, 1, R{2, 1}).fires);
}

TEST(ActionTest, ProbeRuleAnyOfNeedsOneMatchAmongAllReplies) {
  AnyOfSamplingAction a;
  a.from_state = 0;
  a.match_state = 1;
  a.fanout = 3;
  const Action action = a;
  using R = ProbeReplies;
  EXPECT_TRUE(probe_rule(action, 0, R{kLost, 2, 1}).fires);
  EXPECT_TRUE(probe_rule(action, 0, R{1, 1, 1}).fires);
  EXPECT_FALSE(probe_rule(action, 0, R{0, 2, kLost}).fires);  // no match
  EXPECT_FALSE(probe_rule(action, 0, R{1, 2}).fires);         // one missing
  EXPECT_FALSE(probe_rule(action, 2, R{1, 1, 1}).fires);      // moved away
  EXPECT_FALSE(probe_rule(action, kLost, R{1, 1, 1}).fires);
}

}  // namespace
}  // namespace deproto::core
