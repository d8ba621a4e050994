// Build-integrity test: includes ONLY the umbrella header and exercises one
// symbol from each of the seven layers. If a header drops out of deproto.hpp
// (or deproto.hpp stops compiling standalone), this fails to build.

#include "deproto.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

TEST(UmbrellaHeaderTest, OdeLayerIsReachable) {
  const deproto::ode::Term t;
  EXPECT_TRUE(t.is_constant());
  EXPECT_DOUBLE_EQ(t.coefficient(), 0.0);
}

TEST(UmbrellaHeaderTest, NumericsLayerIsReachable) {
  const std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {10.0, 20.0};
  deproto::num::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(UmbrellaHeaderTest, CoreLayerIsReachable) {
  const deproto::core::ProtocolStateMachine machine({"x", "y"}, 0.25);
  EXPECT_EQ(machine.num_states(), 2U);
  EXPECT_DOUBLE_EQ(machine.normalizing_p(), 0.25);
}

TEST(UmbrellaHeaderTest, ProtocolsLayerIsReachable) {
  const deproto::proto::HandoffMigration handoff(
      deproto::proto::HandoffParams{});
  EXPECT_EQ(handoff.num_states(), 2U);
  EXPECT_EQ(handoff.replicas_lost(), 0U);
}

TEST(UmbrellaHeaderTest, SimLayerIsReachable) {
  deproto::sim::Rng rng(42);
  const double u = rng.uniform01();
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(UmbrellaHeaderTest, ApiLayerIsReachable) {
  const deproto::api::Json j = deproto::api::Json::parse(R"({"n":3})");
  EXPECT_EQ(j.at("n").as_size(), 3U);
  EXPECT_FALSE(deproto::api::registry_names().empty());
  EXPECT_EQ(deproto::api::backend_name(deproto::api::Backend::Sync),
            std::string("sync"));
}

TEST(UmbrellaHeaderTest, AnalysisLayerIsReachable) {
  deproto::analysis::Report report;
  report.findings.push_back({deproto::analysis::Severity::Warning,
                             "spec.token-ttl", "runtime.token_ttl", "", 0.0});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings(), 1U);
}

TEST(UmbrellaHeaderTest, DistLayerIsReachable) {
  deproto::dist::Frame frame;
  frame.type = deproto::dist::FrameType::Heartbeat;
  frame.payload = "{}";
  const std::string bytes = deproto::dist::encode_frame(frame);
  deproto::dist::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  deproto::dist::Frame decoded;
  EXPECT_EQ(decoder.next(&decoded), deproto::dist::FrameDecoder::Status::Frame);
  EXPECT_EQ(decoded, frame);
}

}  // namespace
