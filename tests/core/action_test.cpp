#include "core/action.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

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

std::vector<std::size_t> expected_replies(const ActionLayout& layout) {
  std::vector<std::size_t> states;
  for (std::size_t k = 0; k < layout.probes; ++k) {
    states.push_back(layout.expected(k));
  }
  return states;
}

TEST(ActionTest, LayoutOfEachKind) {
  using V = std::vector<std::size_t>;
  FlippingAction flip;
  flip.from_state = 1;
  flip.to_state = 2;
  flip.coin_bias = 0.25;
  const ActionLayout f = layout_of(Action{flip});
  EXPECT_EQ(f.executor, 1U);
  EXPECT_EQ(f.from, 1U);
  EXPECT_EQ(f.to, 2U);
  EXPECT_EQ(f.mover, Mover::Executor);
  EXPECT_EQ(f.judge, Judge::None);
  EXPECT_DOUBLE_EQ(f.coin_bias, 0.25);
  EXPECT_EQ(f.probes, 0U);

  // Term -c x^2 y z in f_x: one copy of the executor state, then y, z.
  SamplingAction sample;
  sample.from_state = 0;
  sample.to_state = 2;
  sample.same_state_samples = 1;
  sample.target_states = {1, 2};
  sample.coin_bias = 0.5;
  const Action sample_action = sample;
  const ActionLayout s = layout_of(sample_action);
  EXPECT_EQ(s.executor, 0U);
  EXPECT_EQ(s.from, 0U);
  EXPECT_EQ(s.to, 2U);
  EXPECT_EQ(s.mover, Mover::Executor);
  EXPECT_EQ(s.judge, Judge::All);
  EXPECT_DOUBLE_EQ(s.coin_bias, 0.5);
  EXPECT_EQ(s.probes, 3U);
  EXPECT_EQ(expected_replies(s), (V{0, 1, 2}));
  // The layout views the action's own pattern; it copies nothing.
  EXPECT_EQ(s.targets.data(),
            std::get<SamplingAction>(sample_action).target_states.data());

  // The executor w samples its own state, then the term's other
  // variables; the firing moves a token_state process, not w.
  TokenizingAction token;
  token.executor_state = 1;
  token.token_state = 0;
  token.to_state = 2;
  token.same_state_samples = 1;
  token.target_states = {2};
  const Action token_action = token;  // outlives its layout
  const ActionLayout t = layout_of(token_action);
  EXPECT_EQ(t.executor, 1U);
  EXPECT_EQ(t.from, 0U);
  EXPECT_EQ(t.to, 2U);
  EXPECT_EQ(t.mover, Mover::Token);
  EXPECT_EQ(t.judge, Judge::All);
  EXPECT_EQ(t.probes, 2U);
  EXPECT_EQ(expected_replies(t), (V{1, 2}));

  // Each contact found in target_state converts on its own coin.
  PushAction push;
  push.executor_state = 1;
  push.target_state = 0;
  push.to_state = 1;
  push.fanout = 4;
  push.coin_bias = 0.5;
  const ActionLayout p = layout_of(Action{push});
  EXPECT_EQ(p.executor, 1U);
  EXPECT_EQ(p.from, 0U);
  EXPECT_EQ(p.to, 1U);
  EXPECT_EQ(p.mover, Mover::Contacts);
  EXPECT_EQ(p.judge, Judge::None);
  EXPECT_DOUBLE_EQ(p.coin_bias, 0.5);
  EXPECT_EQ(p.probes, 4U);
  EXPECT_EQ(expected_replies(p), (V{0, 0, 0, 0}));

  // One reply in match_state suffices.
  AnyOfSamplingAction pull;
  pull.from_state = 0;
  pull.match_state = 1;
  pull.to_state = 1;
  pull.fanout = 3;
  const ActionLayout a = layout_of(Action{pull});
  EXPECT_EQ(a.executor, 0U);
  EXPECT_EQ(a.from, 0U);
  EXPECT_EQ(a.to, 1U);
  EXPECT_EQ(a.mover, Mover::Executor);
  EXPECT_EQ(a.judge, Judge::Any);
  EXPECT_EQ(a.probes, 3U);
  EXPECT_EQ(expected_replies(a), (V{1, 1, 1}));
}

/// Every reply vector of length `len` over {s0, s1, s2, lost}.
std::vector<ProbeReplies> all_reply_vectors(std::size_t len) {
  const std::vector<std::optional<std::size_t>> alphabet{0, 1, 2, kLost};
  std::vector<ProbeReplies> out{ProbeReplies{}};
  for (std::size_t k = 0; k < len; ++k) {
    std::vector<ProbeReplies> longer;
    for (const ProbeReplies& prefix : out) {
      for (const auto& reply : alphabet) {
        longer.push_back(prefix);
        longer.back().push_back(reply);
      }
    }
    out = std::move(longer);
  }
  return out;
}

TEST(ActionTest, InOrderJudgingAgreesWithTheFullReplyVector) {
  // The sync backend judges replies as it probes and stops at the first
  // decisive one; event and net judge the full vector with probe_rule.
  // Both must give every reply vector the same verdict, and the in-order
  // judge must stop exactly where the verdict is settled.
  SamplingAction sample;  // -c x^2 y z in f_x
  sample.from_state = 0;
  sample.same_state_samples = 1;
  sample.target_states = {1, 2};
  SamplingAction doubled;  // -c x^3 y in f_x
  doubled.from_state = 0;
  doubled.same_state_samples = 2;
  doubled.target_states = {1};
  TokenizingAction token;
  token.executor_state = 1;
  token.token_state = 0;
  token.same_state_samples = 1;
  token.target_states = {2};
  AnyOfSamplingAction pull;
  pull.from_state = 0;
  pull.match_state = 1;
  pull.fanout = 3;

  for (const Action& action : {Action{sample}, Action{doubled}, Action{token},
                               Action{pull}}) {
    const ActionLayout l = layout_of(action);
    // The sync backend judges only a process that holds the executor
    // state, so the full-vector rule sees it there too.
    const auto verdict = [&](const ProbeReplies& replies) {
      return probe_rule(action, l.executor, replies).fires;
    };
    const std::vector<ProbeReplies> full = all_reply_vectors(l.probes);
    // Whether every completion of replies[0, read) gets one verdict.
    const auto settled = [&](const ProbeReplies& replies, std::size_t read) {
      std::set<bool> verdicts;
      for (const ProbeReplies& other : full) {
        if (std::equal(replies.begin(), replies.begin() + read,
                       other.begin())) {
          verdicts.insert(verdict(other));
        }
      }
      return verdicts.size() == 1;
    };
    for (std::size_t len = 0; len <= 3; ++len) {
      for (const ProbeReplies& replies : all_reply_vectors(len)) {
        if (len != l.probes) {
          EXPECT_FALSE(verdict(replies)) << len;  // a reply missing or extra
          continue;
        }
        std::size_t read = 0;
        const bool in_order = l.judge_in_order([&](std::size_t k) {
          EXPECT_EQ(k, read);  // replies are read in order, once each
          ++read;
          return replies[k];
        });
        EXPECT_EQ(in_order, verdict(replies));
        EXPECT_TRUE(settled(replies, read)) << read;
        EXPECT_FALSE(settled(replies, read - 1)) << read;
      }
    }
  }
}

}  // namespace
}  // namespace deproto::core
