// The combined fault model (extension; the paper's open problem asks for
// algorithms robust to sender AND receiver faults simultaneously).  Every
// algorithm in the library must keep completing under it.
#include <gtest/gtest.h>

#include "core/decay.hpp"
#include "core/fastbc.hpp"
#include "core/multi_message.hpp"
#include "core/robust_fastbc.hpp"
#include "core/single_link.hpp"
#include "core/star_schedules.hpp"
#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using radio::ChannelModel;
using radio::RadioNetwork;

const ChannelModel kCombined = ChannelModel::combined(0.3, 0.3);

TEST(CombinedFaults, DecayCompletes) {
  const auto g = graph::make_path(96);
  RadioNetwork net(g, kCombined, nullptr, Rng(1));
  Rng rng(2);
  EXPECT_TRUE(Decay().run(net, 0, rng).completed);
}

TEST(CombinedFaults, DecayOnGridAndGnp) {
  Rng grng(3);
  for (const auto& g : {graph::make_grid(9, 9),
                        graph::make_connected_gnp(100, 0.08, grng)}) {
    RadioNetwork net(g, kCombined, nullptr, Rng(4));
    Rng rng(5);
    EXPECT_TRUE(Decay().run(net, 0, rng).completed);
  }
}

TEST(CombinedFaults, FastbcCompletes) {
  const auto g = graph::make_path(96);
  Fastbc algo(g, 0);
  RadioNetwork net(g, kCombined, nullptr, Rng(6));
  Rng rng(7);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(CombinedFaults, RobustFastbcCompletes) {
  const auto g = graph::make_path(128);
  RobustFastbcParams params;
  params.window_multiplier =
      RobustFastbc::recommended_window_multiplier(kCombined.effective_loss());
  RobustFastbc algo(g, 0, params);
  RadioNetwork net(g, kCombined, nullptr, Rng(8));
  Rng rng(9);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(CombinedFaults, RlncDecayPatternCompletes) {
  const auto g = graph::make_path(24);
  MultiMessageParams params;
  params.k = 8;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, kCombined, nullptr, Rng(10));
  Rng rng(11);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(CombinedFaults, RlncRobustPatternCompletesWithPayloads) {
  const auto g = graph::make_path(24);
  MultiMessageParams params;
  params.k = 4;
  params.block_len = 3;
  params.pattern = MultiPattern::kRobustFastbc;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, kCombined, nullptr, Rng(12));
  Rng rng(13);
  std::vector<std::vector<std::uint8_t>> msgs(4, std::vector<std::uint8_t>(3));
  Rng payload_rng(14);
  for (auto& m : msgs)
    for (auto& s : m) s = static_cast<std::uint8_t>(payload_rng.next_below(256));
  EXPECT_TRUE(algo.run_and_verify(net, rng, msgs).completed);
}

TEST(CombinedFaults, StarCodingSizedByEffectiveLoss) {
  const auto star = topology::make_star(256);
  RadioNetwork net(star.graph, kCombined, nullptr, Rng(15));
  const std::int64_t k = 64;
  const auto m = rs_packet_count(k, 257, kCombined.effective_loss());
  EXPECT_TRUE(run_star_rs_coding(net, star, k, m).completed);
}

TEST(CombinedFaults, LinkAdaptiveRpmMatchesEffectiveLoss) {
  const auto g = graph::make_single_link();
  RadioNetwork net(g, kCombined, nullptr, Rng(16));
  const std::int64_t k = 2048;
  const auto r = run_link_adaptive_routing(net, k, 100 * k);
  ASSERT_TRUE(r.completed);
  EXPECT_NEAR(r.rounds_per_message(),
              1.0 / (1.0 - kCombined.effective_loss()), 0.25);
}

TEST(CombinedFaults, DegeneratesToSingleModels) {
  // combined(p, 0) must behave like sender(p): all-or-nothing on a star.
  const auto g = graph::make_star(10);
  RadioNetwork net(g, ChannelModel::combined(0.5, 0.0), nullptr, Rng(17));
  int partial = 0;
  for (int r = 0; r < 1000; ++r) {
    net.set_broadcast(0, radio::Packet{r});
    const auto got = net.run_round().size();
    if (got != 0u && got != 10u) ++partial;
  }
  EXPECT_EQ(partial, 0);
}

}  // namespace
}  // namespace nrn::core
