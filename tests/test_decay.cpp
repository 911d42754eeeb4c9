// Decay: completion on assorted topologies, robustness under both fault
// models (Lemmas 6 and 9), and scaling sanity.
#include "core/decay.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using graph::make_complete;
using graph::make_connected_gnp;
using graph::make_grid;
using graph::make_path;
using graph::make_star;
using radio::ChannelModel;
using radio::RadioNetwork;

BroadcastRunResult run_once(const graph::Graph& g, ChannelModel fm,
                            std::uint64_t seed, DecayParams params = {}) {
  RadioNetwork net(g, fm, nullptr, Rng(seed));
  Rng rng(seed ^ 0xabcdef);
  return Decay(params).run(net, 0, rng);
}

TEST(Decay, CompletesOnPathFaultless) {
  const auto g = make_path(64);
  const auto r = run_once(g, ChannelModel::faultless(), 1);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.informed, 64);
}

TEST(Decay, CompletesOnStarFaultless) {
  const auto g = make_star(100);
  const auto r = run_once(g, ChannelModel::faultless(), 2);
  EXPECT_TRUE(r.completed);
  // The hub reaches every leaf the first time it broadcasts alone; this
  // happens in round 0 (probability 1 at sub-round 0).
  EXPECT_LE(r.rounds, 16);
}

TEST(Decay, CompletesOnCompleteGraph) {
  const auto g = make_complete(40);
  const auto r = run_once(g, ChannelModel::faultless(), 3);
  EXPECT_TRUE(r.completed);
}

TEST(Decay, CompletesOnGridWithReceiverFaults) {
  const auto g = make_grid(10, 10);
  const auto r = run_once(g, ChannelModel::receiver(0.3), 4);
  EXPECT_TRUE(r.completed);
}

TEST(Decay, CompletesOnGnpWithSenderFaults) {
  Rng grng(5);
  const auto g = make_connected_gnp(100, 0.08, grng);
  const auto r = run_once(g, ChannelModel::sender(0.3), 5);
  EXPECT_TRUE(r.completed);
}

TEST(Decay, HighFaultRateStillCompletes) {
  const auto g = make_path(32);
  for (const auto fm :
       {ChannelModel::receiver(0.8), ChannelModel::sender(0.8)}) {
    const auto r = run_once(g, fm, 6);
    EXPECT_TRUE(r.completed) << to_string(fm);
  }
}

TEST(Decay, RoundsGrowRoughlyLinearlyInDiameter) {
  // Lemma 9: O(log n / (1-p) * (D + log n)); on a path D dominates.
  std::vector<double> lengths, rounds;
  for (const std::int32_t n : {32, 64, 128, 256}) {
    const auto g = make_path(n);
    double total = 0;
    for (std::uint64_t s = 0; s < 5; ++s)
      total += static_cast<double>(
          run_once(g, ChannelModel::receiver(0.5), 10 + s).rounds);
    lengths.push_back(n);
    rounds.push_back(total / 5);
  }
  const auto fit = fit_power_law(lengths, rounds);
  EXPECT_GT(fit.slope, 0.75);  // near-linear in D
  EXPECT_LT(fit.slope, 1.35);
}

TEST(Decay, FaultsSlowItDown) {
  const auto g = make_path(96);
  double clean = 0, noisy = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    clean += static_cast<double>(
        run_once(g, ChannelModel::faultless(), 20 + s).rounds);
    noisy += static_cast<double>(
        run_once(g, ChannelModel::receiver(0.6), 20 + s).rounds);
  }
  EXPECT_GT(noisy, clean * 1.3);
}

TEST(Decay, BudgetIsRespected) {
  const auto g = make_path(128);
  DecayParams params;
  params.max_rounds = 10;  // absurdly small
  const auto r = run_once(g, ChannelModel::faultless(), 7, params);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 10);
  EXPECT_LT(r.informed, 128);
}

TEST(Decay, SingleNodeGraphTrivial) {
  const auto g = graph::make_path(1);
  const auto r = run_once(g, ChannelModel::faultless(), 8);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 0);
}

TEST(Decay, TraceMonotoneInformed) {
  const auto g = make_grid(6, 6);
  RadioNetwork net(g, ChannelModel::receiver(0.2), nullptr, Rng(9));
  Rng rng(10);
  radio::TraceRecorder trace;
  const auto r = Decay().run(net, 0, rng, &trace);
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(static_cast<std::int64_t>(trace.round_count()), r.rounds);
  for (std::size_t i = 1; i < trace.progress().size(); ++i)
    EXPECT_GE(trace.progress()[i], trace.progress()[i - 1]);
  EXPECT_DOUBLE_EQ(trace.progress().back(), 36.0);
}

TEST(Decay, DefaultPhaseLength) {
  EXPECT_EQ(Decay::default_phase_length(1), 2);   // bits=1 -> 2
  EXPECT_EQ(Decay::default_phase_length(2), 2);
  EXPECT_EQ(Decay::default_phase_length(1024), 11);
  EXPECT_EQ(Decay::default_phase_length(1025), 12);
}

TEST(Decay, DeterministicGivenSeeds) {
  const auto g = make_grid(8, 8);
  const auto a = run_once(g, ChannelModel::receiver(0.4), 42);
  const auto b = run_once(g, ChannelModel::receiver(0.4), 42);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Decay, SourceArgumentValidated) {
  const auto g = make_path(4);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  Rng rng(1);
  EXPECT_THROW(Decay().run(net, 99, rng), ContractViolation);
}

}  // namespace
}  // namespace nrn::core
