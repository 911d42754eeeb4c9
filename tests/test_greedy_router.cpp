// Greedy adaptive router (the strongest practical Definition 14 member).
#include "core/greedy_router.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/star_schedules.hpp"
#include "graph/generators.hpp"
#include "topology/wct.hpp"

namespace nrn::core {
namespace {

using radio::ChannelModel;
using radio::RadioNetwork;

MultiRunResult run(const graph::Graph& g, ChannelModel fm, std::int64_t k,
                   std::uint64_t seed) {
  RadioNetwork net(g, fm, nullptr, Rng(seed));
  GreedyRouterParams params;
  params.k = k;
  return run_greedy_adaptive_routing(net, 0, params);
}

TEST(GreedyRouter, CompletesOnPathFaultless) {
  const auto r = run(graph::make_path(32), ChannelModel::faultless(), 4, 1);
  EXPECT_TRUE(r.completed);
}

TEST(GreedyRouter, SequentialBoundOnFaultlessPath) {
  // The greedy router is myopic: on deep paths it does not discover the
  // spacing-3 pipeline (relays prefer forwarding over listening), so its
  // cost is bounded by the sequential k * D but not much better.  Its
  // purpose is the depth-<=2 gap topologies; this test documents the
  // limitation explicitly.
  const std::int64_t k = 12;
  const auto r = run(graph::make_path(40), ChannelModel::faultless(), k, 2);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 39 * k);
}

TEST(GreedyRouter, CompletesOnGridWithReceiverFaults) {
  const auto r = run(graph::make_grid(7, 7), ChannelModel::receiver(0.4), 6, 3);
  EXPECT_TRUE(r.completed);
}

TEST(GreedyRouter, CompletesOnGnpWithSenderFaults) {
  Rng grng(4);
  const auto g = graph::make_connected_gnp(64, 0.1, grng);
  const auto r = run(g, ChannelModel::sender(0.4), 6, 5);
  EXPECT_TRUE(r.completed);
}

TEST(GreedyRouter, CompletesUnderCombinedFaults) {
  const auto r =
      run(graph::make_path(24), ChannelModel::combined(0.25, 0.25), 4, 6);
  EXPECT_TRUE(r.completed);
}

TEST(GreedyRouter, MatchesStarScheduleOnStar) {
  // On the star the greedy router degenerates to Lemma 15's schedule (one
  // broadcaster, most-wanted message), so rounds/message should land at
  // the same Theta(log n) scale under receiver faults.
  const auto star = topology::make_star(256);
  const std::int64_t k = 32;
  const auto greedy = run(star.graph, ChannelModel::receiver(0.5), k, 7);
  ASSERT_TRUE(greedy.completed);

  RadioNetwork net(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(8));
  const auto reference =
      run_star_adaptive_routing(net, star, k, 100'000'000);
  ASSERT_TRUE(reference.completed);

  EXPECT_NEAR(greedy.rounds_per_message(), reference.rounds_per_message(),
              0.5 * reference.rounds_per_message());
  EXPECT_GT(greedy.rounds_per_message(), 0.5 * std::log2(256));
}

TEST(GreedyRouter, StillPaysLogSquaredOnWct) {
  // The point of Lemma 19: even an aggressive adaptive router cannot beat
  // Theta(1/log^2 n) on WCT with receiver faults.  The greedy router's
  // rounds/message must stay well above the coding scale (~log n).
  Rng grng(9);
  topology::WctParams wp;
  wp.sender_count = 64;
  wp.class_count = 6;
  wp.clusters_per_class = 8;
  wp.cluster_size = 16;
  const topology::WctNetwork wct(wp, grng);
  RadioNetwork net(wct.graph(), ChannelModel::receiver(0.5), nullptr, Rng(10));
  GreedyRouterParams params;
  params.k = 16;
  const auto r = run_greedy_adaptive_routing(net, wct.source(), params);
  ASSERT_TRUE(r.completed);
  // Lemma 19 scale on this instance: Omega(L * log(cluster size)) rounds
  // per message = 6 * log2(16) = 24 up to constants; far above the coding
  // scale (~a small multiple of 1/(1-p)).
  EXPECT_GT(r.rounds_per_message(),
            0.5 * 6 * std::log2(16));
}

TEST(GreedyRouter, SingleMessageOnCompleteGraphIsOneRound) {
  const auto r =
      run(graph::make_complete(16), ChannelModel::faultless(), 1, 11);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1);
}

TEST(GreedyRouter, BudgetRespected) {
  const auto g = graph::make_path(64);
  RadioNetwork net(g, ChannelModel::receiver(0.5), nullptr, Rng(12));
  GreedyRouterParams params;
  params.k = 8;
  params.max_rounds = 5;
  const auto r = run_greedy_adaptive_routing(net, 0, params);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 5);
}

TEST(GreedyRouter, TrivialInstanceShortCircuits) {
  const auto g = graph::make_path(1);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(13));
  GreedyRouterParams params;
  params.k = 3;
  const auto r = run_greedy_adaptive_routing(net, 0, params);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 0);
}

TEST(GreedyRouter, ValidatesArguments) {
  const auto g = graph::make_path(4);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(14));
  GreedyRouterParams params;
  params.k = 0;
  EXPECT_THROW(run_greedy_adaptive_routing(net, 0, params),
               ContractViolation);
  params.k = 1;
  EXPECT_THROW(run_greedy_adaptive_routing(net, 9, params),
               ContractViolation);
}

}  // namespace
}  // namespace nrn::core
