// ProtocolRegistry: the global registry enumerates every built-in
// protocol, builds each of them, and rejects unknown names.
#include "sim/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

using testutil::builtin_names;
using testutil::ScenarioFixture;

TEST(ProtocolRegistry, GlobalEnumeratesEveryBuiltin) {
  const auto names = ProtocolRegistry::global().names();
  EXPECT_EQ(names, builtin_names());  // sorted, complete
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ProtocolRegistry, EveryBuiltinConstructsAndReportsItsName) {
  const ScenarioFixture fixture("path:16", "receiver:0.2", 0, 2, 5);
  const ProtocolContext ctx = fixture.context();
  for (const auto& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto protocol = ProtocolRegistry::global().create(name, ctx);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->name(), name);
    EXPECT_FALSE(ProtocolRegistry::global().description(name).empty());
  }
}

TEST(ProtocolRegistry, UnknownNameThrowsListingKnownOnes) {
  const ScenarioFixture fixture("path:8");
  const ProtocolContext ctx = fixture.context();
  try {
    ProtocolRegistry::global().create("flooding", ctx);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("flooding"), std::string::npos);
    EXPECT_NE(what.find("decay"), std::string::npos);
  }
  EXPECT_FALSE(ProtocolRegistry::global().contains("flooding"));
  EXPECT_THROW(ProtocolRegistry::global().description("flooding"), SpecError);
}

TEST(ProtocolRegistry, CustomRegistrationAndOverride) {
  ProtocolRegistry registry;
  register_builtin_protocols(registry);
  EXPECT_EQ(registry.names(), builtin_names());

  // A custom variant: decay under a different name.
  registry.add("my-decay", "ablation variant",
               [](const ProtocolContext& ctx) {
                 return ProtocolRegistry::global().create("decay", ctx);
               });
  EXPECT_TRUE(registry.contains("my-decay"));
  EXPECT_EQ(registry.names().size(), builtin_names().size() + 1);

  const ScenarioFixture fixture("path:12", "none", 0, 1, 3);
  const ProtocolContext ctx = fixture.context();
  const auto protocol = registry.create("my-decay", ctx);
  radio::RadioNetwork net(fixture.graph, fixture.scenario.channel, nullptr,
                          Rng(1));
  Rng rng(2);
  const auto report = protocol->run(net, rng);
  EXPECT_TRUE(report.completed);
}

TEST(ProtocolRegistry, TuningReachesTheProtocol) {
  // An absurdly small round budget must be honored by the adapters.
  Tuning tuning;
  tuning.max_rounds = 5;
  const ScenarioFixture fixture("path:128", "none", 0, 1, 4, tuning);
  const ProtocolContext ctx = fixture.context();
  const auto protocol = ProtocolRegistry::global().create("decay", ctx);
  radio::RadioNetwork net(fixture.graph, fixture.scenario.channel, nullptr,
                          Rng(1));
  Rng rng(2);
  const auto report = protocol->run(net, rng);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.rounds(), 5);
}

}  // namespace
}  // namespace nrn::sim
