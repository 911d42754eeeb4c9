// Semantics of the radio round engine: the exact reception rule of the
// classic model (Section 3.1) and engine bookkeeping.
#include "radio/network.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "radio/trace.hpp"

namespace nrn::radio {
namespace {

using graph::Graph;
using graph::make_complete;
using graph::make_path;
using graph::make_star;

TEST(RadioEngine, SingleBroadcasterDelivers) {
  const Graph g = make_path(3);  // 0 - 1 - 2
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(1, Packet{7});
  const auto& ds = net.run_round();
  ASSERT_EQ(ds.size(), 2u);  // both path neighbors hear it
  for (const auto& d : ds) {
    EXPECT_EQ(d.sender, 1);
    EXPECT_EQ(d.packet.id, 7);
    EXPECT_TRUE(d.receiver == 0 || d.receiver == 2);
  }
}

TEST(RadioEngine, TwoBroadcastingNeighborsCollide) {
  const Graph g = make_star(2);  // hub 0, leaves 1, 2
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(1, Packet{1});
  net.set_broadcast(2, Packet{2});
  const auto& ds = net.run_round();
  EXPECT_TRUE(ds.empty());  // hub hears a collision
  EXPECT_EQ(net.last_round().collision_losses, 1);
}

TEST(RadioEngine, BroadcasterDoesNotReceive) {
  const Graph g = make_path(2);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(0, Packet{1});
  net.set_broadcast(1, Packet{2});
  const auto& ds = net.run_round();
  EXPECT_TRUE(ds.empty());  // both transmitted, neither listened
}

TEST(RadioEngine, NonNeighborsDoNotInterfere) {
  const Graph g = make_path(5);  // 0-1-2-3-4
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(0, Packet{1});
  net.set_broadcast(3, Packet{2});
  const auto& ds = net.run_round();
  // Node 1 hears 0; node 2 hears 3; node 4 hears 3.
  ASSERT_EQ(ds.size(), 3u);
}

TEST(RadioEngine, CollisionAtSharedNeighborOnly) {
  const Graph g = make_path(5);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(1, Packet{1});
  net.set_broadcast(3, Packet{2});
  const auto& ds = net.run_round();
  // Node 2 is adjacent to both: collision.  Nodes 0 and 4 each hear one.
  ASSERT_EQ(ds.size(), 2u);
  for (const auto& d : ds) EXPECT_TRUE(d.receiver == 0 || d.receiver == 4);
  EXPECT_EQ(net.last_round().collision_losses, 1);
}

TEST(RadioEngine, DoubleStagingThrows) {
  const Graph g = make_path(2);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(0, Packet{1});
  EXPECT_THROW(net.set_broadcast(0, Packet{2}), ContractViolation);
}

TEST(RadioEngine, SilentRoundAdvancesClock) {
  const Graph g = make_path(2);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  EXPECT_EQ(net.round_number(), 0);
  net.run_silent_round();
  EXPECT_EQ(net.round_number(), 1);
  EXPECT_EQ(net.last_round().broadcasters, 0);
}

TEST(RadioEngine, TotalsAccumulate) {
  const Graph g = make_path(3);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  for (int i = 0; i < 5; ++i) {
    net.set_broadcast(0, Packet{i});
    net.run_round();
  }
  EXPECT_EQ(net.totals().rounds, 5);
  EXPECT_EQ(net.totals().broadcasts, 5);
  EXPECT_EQ(net.totals().deliveries, 5);  // node 1 hears each time
}

TEST(RadioEngine, DeterministicGivenSeed) {
  const Graph g = make_star(50);
  auto run = [&g](std::uint64_t seed) {
    RadioNetwork net(g, ChannelModel::receiver(0.5), nullptr, Rng(seed));
    std::vector<std::int64_t> counts;
    for (int r = 0; r < 50; ++r) {
      net.set_broadcast(0, Packet{r});
      counts.push_back(
          static_cast<std::int64_t>(net.run_round().size()));
    }
    return counts;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(RadioEngine, PayloadSharedAcrossDeliveries) {
  const Graph g = make_star(3);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  auto payload = make_payload({1, 2, 3});
  net.set_broadcast(0, Packet{9, payload});
  const auto& ds = net.run_round();
  ASSERT_EQ(ds.size(), 3u);
  for (const auto& d : ds) EXPECT_EQ(d.packet.payload.get(), payload.get());
}

TEST(RadioEngine, CompleteGraphSingleSpeakerReachesAll) {
  const Graph g = make_complete(8);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(0, Packet{0});
  EXPECT_EQ(net.run_round().size(), 7u);
}

TEST(RadioEngine, CompleteGraphTwoSpeakersSilenceEveryone) {
  const Graph g = make_complete(8);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  net.set_broadcast(0, Packet{0});
  net.set_broadcast(1, Packet{1});
  EXPECT_TRUE(net.run_round().empty());
  EXPECT_EQ(net.last_round().collision_losses, 6);
}

TEST(Trace, RecordsAndAccumulates) {
  const Graph g = make_path(4);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  TraceRecorder trace;
  for (int r = 0; r < 3; ++r) {
    net.set_broadcast(0, Packet{r});
    net.run_round();
    trace.record(net.last_round(), static_cast<double>(r + 1));
  }
  EXPECT_EQ(trace.round_count(), 3u);
  EXPECT_EQ(trace.accumulate().deliveries, 3);
  EXPECT_EQ(trace.productive_rounds(), 3u);
  EXPECT_EQ(trace.rounds_until_progress_at_least(2.0), 1);
  EXPECT_EQ(trace.rounds_until_progress_at_least(99.0), -1);
}

}  // namespace
}  // namespace nrn::radio
