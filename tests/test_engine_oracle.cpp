// Oracle tests: the optimized epoch-counter round engine against a
// brute-force reference implementation of the model's reception rule.
//
// The reference resolver recomputes, from scratch each round, the set of
// deliveries of the *faultless* rule (faults are sampled noise on top and
// are checked statistically in test_faults.cpp; here the combinatorial core
// must match exactly on random broadcast patterns over random graphs).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace nrn::radio {
namespace {

using graph::Graph;
using graph::NodeId;

/// Brute-force: for every node, scan all neighbors, count broadcasters.
std::set<std::pair<NodeId, NodeId>> reference_deliveries(
    const Graph& g, const std::vector<std::pair<NodeId, PacketId>>& plan) {
  std::vector<char> broadcasting(static_cast<std::size_t>(g.node_count()), 0);
  for (const auto& [u, id] : plan) {
    (void)id;
    broadcasting[static_cast<std::size_t>(u)] = 1;
  }
  std::set<std::pair<NodeId, NodeId>> out;  // (receiver, sender)
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (broadcasting[static_cast<std::size_t>(v)]) continue;
    NodeId tx_neighbor = -1;
    int count = 0;
    for (const NodeId w : g.neighbors(v)) {
      if (broadcasting[static_cast<std::size_t>(w)]) {
        ++count;
        tx_neighbor = w;
      }
    }
    if (count == 1) out.insert({v, tx_neighbor});
  }
  return out;
}

class EngineOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOracle, RandomPlansOnRandomGraphs) {
  Rng rng(GetParam());
  for (int instance = 0; instance < 10; ++instance) {
    const auto n = static_cast<NodeId>(8 + rng.next_below(56));
    const double edge_p = 0.02 + rng.uniform01() * 0.3;
    const Graph g = graph::make_connected_gnp(n, edge_p, rng);
    RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(rng()));
    for (int round = 0; round < 30; ++round) {
      std::vector<std::pair<NodeId, PacketId>> plan;
      for (NodeId u = 0; u < n; ++u)
        if (rng.bernoulli(0.3)) plan.emplace_back(u, u);
      for (const auto& [u, id] : plan) net.set_broadcast(u, Packet{id});
      const auto& deliveries = net.run_round();

      std::set<std::pair<NodeId, NodeId>> got;
      for (const auto& d : deliveries) {
        EXPECT_EQ(d.packet.id, d.sender);  // payload id tags the sender
        got.insert({d.receiver, d.sender});
      }
      EXPECT_EQ(got, reference_deliveries(g, plan))
          << "instance " << instance << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracle,
                         ::testing::Values(101ULL, 202ULL, 303ULL, 404ULL,
                                           505ULL));

TEST(EngineOracle, StatsConsistentWithReference) {
  // collision_losses must equal the number of listening nodes with >= 2
  // broadcasting neighbors.
  Rng rng(99);
  const Graph g = graph::make_connected_gnp(40, 0.15, rng);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  for (int round = 0; round < 20; ++round) {
    std::vector<std::pair<NodeId, PacketId>> plan;
    for (NodeId u = 0; u < 40; ++u)
      if (rng.bernoulli(0.4)) plan.emplace_back(u, 0);
    std::vector<char> tx(40, 0);
    for (const auto& [u, id] : plan) {
      (void)id;
      tx[static_cast<std::size_t>(u)] = 1;
      net.set_broadcast(u, Packet{0});
    }
    net.run_round();
    std::int64_t expected_collisions = 0;
    for (NodeId v = 0; v < 40; ++v) {
      if (tx[static_cast<std::size_t>(v)]) continue;
      int count = 0;
      for (const NodeId w : g.neighbors(v))
        count += tx[static_cast<std::size_t>(w)];
      if (count >= 2) ++expected_collisions;
    }
    EXPECT_EQ(net.last_round().collision_losses, expected_collisions);
    EXPECT_EQ(net.last_round().broadcasters,
              static_cast<std::int64_t>(plan.size()));
  }
}

TEST(EngineOracle, CombinedModelLossRate) {
  // Extension model: sender coin ps and receiver coin pr compose to
  // effective loss 1 - (1-ps)(1-pr) on an uncontested link.
  const Graph g = graph::make_star(1);
  const double ps = 0.3, pr = 0.4;
  RadioNetwork net(g, ChannelModel::combined(ps, pr), nullptr, Rng(7));
  const int rounds = 40000;
  int received = 0;
  for (int r = 0; r < rounds; ++r) {
    net.set_broadcast(0, Packet{r});
    received += static_cast<int>(net.run_round().size());
  }
  EXPECT_NEAR(static_cast<double>(received) / rounds, (1 - ps) * (1 - pr),
              0.01);
}

TEST(EngineOracle, CombinedModelSenderCoinShared) {
  // In a round where the sender coin fires, no leaf receives; otherwise
  // each leaf independently survives the receiver coin.  So "all 12 leaves
  // lost" rounds occur with probability ps + (1-ps) pr^12 ~ ps.
  const Graph g = graph::make_star(12);
  const double ps = 0.5, pr = 0.2;
  RadioNetwork net(g, ChannelModel::combined(ps, pr), nullptr, Rng(8));
  const int rounds = 4000;
  int all_lost = 0, partial = 0;
  for (int r = 0; r < rounds; ++r) {
    net.set_broadcast(0, Packet{r});
    const auto got = net.run_round().size();
    if (got == 0u) ++all_lost;
    if (got != 0u && got != 12u) ++partial;
  }
  EXPECT_NEAR(static_cast<double>(all_lost) / rounds, ps, 0.04);
  EXPECT_GT(partial, rounds / 3);  // receiver coins do strike individually
}

TEST(EngineOracle, EffectiveLossHelper) {
  EXPECT_DOUBLE_EQ(ChannelModel::faultless().effective_loss(), 0.0);
  EXPECT_DOUBLE_EQ(ChannelModel::sender(0.25).effective_loss(), 0.25);
  EXPECT_DOUBLE_EQ(ChannelModel::receiver(0.25).effective_loss(), 0.25);
  EXPECT_NEAR(ChannelModel::combined(0.3, 0.4).effective_loss(),
              1.0 - 0.7 * 0.6, 1e-12);
  EXPECT_TRUE(ChannelModel::combined(0.0, 0.0).is_faultless());
  EXPECT_FALSE(ChannelModel::combined(0.0, 0.1).is_faultless());
  // SINR prices no fault coins and feeds no loss into budget formulas.
  const auto sinr = ChannelModel::sinr_channel(2.0, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(sinr.effective_loss(), 0.0);
  EXPECT_DOUBLE_EQ(sinr.sender_probability(), 0.0);
  EXPECT_DOUBLE_EQ(sinr.receiver_probability(), 0.0);
  EXPECT_TRUE(sinr.is_faultless());
}

}  // namespace
}  // namespace nrn::radio
