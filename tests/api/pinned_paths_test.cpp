// Byte pins for runtime paths that no registry scenario or sweep preset
// reaches, so neither the smoke digest nor the bench digests cover them:
// the sync backend's simultaneous-update (Jacobi) snapshot and TTL-bounded
// random-walk token routing. Each case hashes the canonical result dump
// (to_json(false)) of one fixed-seed run. A change that moves one of these
// digests changed the chain the run samples or the order of its draws.

#include <gtest/gtest.h>

#include <string>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"

namespace deproto::api {
namespace {

std::string digest(const ScenarioSpec& spec) {
  return sha256_hex(Experiment(spec).run().to_json(false).dump());
}

ScenarioSpec jacobi(const std::string& name) {
  ScenarioSpec spec = registry_get(name).scaled_to(200);
  spec.periods = 30;
  spec.runtime.simultaneous_updates = true;
  return spec;
}

// invitation(0.2) maps its -c*y term on x-dot to a Tokenizing action; its
// tokens random-walk for at most 2 hops over a 10% lossy network.
ScenarioSpec ttl_invitation(Backend backend) {
  ScenarioSpec spec;
  spec.name = "invitation-ttl";
  spec.source.catalog = "invitation";
  spec.source.params = {0.2};
  spec.runtime.message_loss = 0.1;
  spec.runtime.tokens.mode = sim::TokenRouting::Mode::RandomWalkTtl;
  spec.runtime.tokens.ttl = 2;
  spec.backend = backend;
  spec.n = 200;
  spec.periods = 30;
  spec.seed = 5;
  return spec;
}

TEST(PinnedPathsTest, EndemicJacobiWithLoss) {
  // Push, AnyOfSampling and Flipping against the period-start snapshot.
  ScenarioSpec spec = jacobi("endemic");
  spec.runtime.message_loss = 0.05;
  EXPECT_EQ(digest(spec),
            "645a5a4b716e6286c280cfd1e6f04d229a22c1917c22f90a8ff405d85014761d");
}

TEST(PinnedPathsTest, LvJacobi) {
  // Sampling against the period-start snapshot.
  EXPECT_EQ(digest(jacobi("lv-majority")),
            "3eba0af0ad7efd011bbc00acd7d54a90b98ffa121e2286dc06d884b89ec6d194");
}

TEST(PinnedPathsTest, InvitationTtlTokensSync) {
  EXPECT_EQ(digest(ttl_invitation(Backend::Sync)),
            "3e56f4fb0fb19a2f39222f1478b95a45b8fde2b313b6683176f4fd5b66e2d204");
}

TEST(PinnedPathsTest, InvitationTtlTokensEvent) {
  EXPECT_EQ(digest(ttl_invitation(Backend::Event)),
            "4130d88c6ccc7172d57513722656fcd7efa69410df6a19c816863f640050a1f4");
}

TEST(PinnedPathsTest, InvitationTtlTokensCount) {
  EXPECT_EQ(digest(ttl_invitation(Backend::Count)),
            "3ea3073a2aa6ea8eea148da1c5cddbcf6124abb8525010611681b67e2c4eb06c");
}

}  // namespace
}  // namespace deproto::api
