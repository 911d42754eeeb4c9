// FASTBC: diameter-linear behaviour in the faultless model (Lemma 8) and
// its degradation under faults (Lemma 10).
#include "core/fastbc.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/decay.hpp"
#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using graph::make_caterpillar;
using graph::make_connected_gnp;
using graph::make_grid;
using graph::make_path;
using radio::ChannelModel;
using radio::RadioNetwork;

BroadcastRunResult run_once(const graph::Graph& g, ChannelModel fm,
                            std::uint64_t seed, FastbcParams params = {}) {
  Fastbc algo(g, 0, params);
  RadioNetwork net(g, fm, nullptr, Rng(seed));
  Rng rng(seed ^ 0x5555);
  return algo.run(net, rng);
}

TEST(Fastbc, CompletesOnPathFaultless) {
  const auto g = make_path(128);
  const auto r = run_once(g, ChannelModel::faultless(), 1);
  EXPECT_TRUE(r.completed);
}

TEST(Fastbc, FaultlessPathIsNearDiameterLinear) {
  // On a path every node is fast (one stretch); after the initial wave
  // alignment of <= 2 * 6 * rmax rounds the message advances one level per
  // fast round: ~2D + O(log n) rounds total (Lemma 8 with D dominant).
  const auto g = make_path(512);
  const auto r = run_once(g, ChannelModel::faultless(), 2);
  EXPECT_TRUE(r.completed);
  EXPECT_LT(r.rounds, 2 * 512 + 40 * 12);
}

TEST(Fastbc, GbstIsValidOnExperimentFamilies) {
  Rng grng(3);
  for (const auto& g :
       {make_path(100), make_grid(10, 10), make_caterpillar(25, 3),
        make_connected_gnp(100, 0.07, grng)}) {
    Fastbc algo(g, 0);
    EXPECT_EQ(algo.tree_stats().violations_remaining, 0);
  }
}

TEST(Fastbc, CompletesOnGridFaultless) {
  const auto g = make_grid(12, 12);
  const auto r = run_once(g, ChannelModel::faultless(), 4);
  EXPECT_TRUE(r.completed);
}

TEST(Fastbc, CompletesWithReceiverFaults) {
  const auto g = make_path(64);
  const auto r = run_once(g, ChannelModel::receiver(0.5), 5);
  EXPECT_TRUE(r.completed);
}

TEST(Fastbc, CompletesWithSenderFaults) {
  const auto g = make_grid(8, 8);
  const auto r = run_once(g, ChannelModel::sender(0.5), 6);
  EXPECT_TRUE(r.completed);
}

TEST(Fastbc, Lemma10DegradationOnPath) {
  // With faults the wave drops a message with probability p per hop and
  // waits Theta(rank_modulus) fast rounds; expected rounds per hop jump
  // from ~2 to ~2 + p/(1-p) * 12 * rank_modulus / 2.  Compare p = 0 with
  // p = 0.5 on a fixed path: the ratio must be large (Lemma 10).
  const auto g = make_path(256);
  double clean = 0, noisy = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    clean += static_cast<double>(
        run_once(g, ChannelModel::faultless(), 30 + s).rounds);
    noisy += static_cast<double>(
        run_once(g, ChannelModel::receiver(0.5), 30 + s).rounds);
  }
  EXPECT_GT(noisy / clean, 4.0);
}

TEST(Fastbc, NoisyPathScalesWithRankModulus) {
  // Lemma 10's waiting time is proportional to the schedule period; a
  // larger rank_modulus slows the noisy path.  The growth saturates once
  // the wave-wait exceeds the Decay slow rounds' rescue time (both are
  // Theta(log n)), so the measured factor is material but bounded.
  const auto g = make_path(128);
  FastbcParams small_mod, large_mod;
  small_mod.rank_modulus = 2;
  large_mod.rank_modulus = 16;
  double small_rounds = 0, large_rounds = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    small_rounds += static_cast<double>(
        run_once(g, ChannelModel::receiver(0.5), 40 + s, small_mod).rounds);
    large_rounds += static_cast<double>(
        run_once(g, ChannelModel::receiver(0.5), 40 + s, large_mod).rounds);
  }
  EXPECT_GT(large_rounds, 1.25 * small_rounds);
}

TEST(Fastbc, RankModulusBelowMaxRankRejected) {
  const auto g = make_grid(8, 8);  // max rank >= 2
  FastbcParams params;
  params.rank_modulus = 1;
  EXPECT_THROW(Fastbc(g, 0, params), ContractViolation);
}

TEST(Fastbc, BudgetRespected) {
  const auto g = make_path(128);
  FastbcParams params;
  params.max_rounds = 8;
  const auto r = run_once(g, ChannelModel::faultless(), 7, params);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 8);
}

TEST(Fastbc, WrongNetworkGraphRejected) {
  const auto g1 = make_path(8);
  const auto g2 = make_path(8);
  Fastbc algo(g1, 0);
  RadioNetwork net(g2, ChannelModel::faultless(), nullptr, Rng(1));
  Rng rng(1);
  EXPECT_THROW(algo.run(net, rng), ContractViolation);
}

TEST(Fastbc, DeterministicGivenSeeds) {
  const auto g = make_grid(9, 9);
  const auto a = run_once(g, ChannelModel::sender(0.3), 77);
  const auto b = run_once(g, ChannelModel::sender(0.3), 77);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Fastbc, BeatsDecayOnLongFaultlessPath) {
  // The whole point of FASTBC: D + polylog instead of D log n.
  const auto g = make_path(512);
  double fastbc_rounds = 0, decay_rounds = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    fastbc_rounds += static_cast<double>(
        run_once(g, ChannelModel::faultless(), 50 + s).rounds);
    RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(60 + s));
    Rng rng(61 + s);
    decay_rounds += static_cast<double>(Decay().run(net, 0, rng).rounds);
  }
  EXPECT_LT(fastbc_rounds, decay_rounds);
}

}  // namespace
}  // namespace nrn::core
