// Cross-product property sweeps: every single-message algorithm must
// complete on every topology family under every fault model, and the
// structural invariants of the substrates must hold across random
// instances.  These are the TEST_P grids that keep refactors honest.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/decay.hpp"
#include "core/fastbc.hpp"
#include "core/greedy_router.hpp"
#include "core/robust_fastbc.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {
namespace {

using radio::ChannelModel;
using radio::RadioNetwork;

// ---------------------------------------------------------------------
// Completion matrix: algorithm x topology x fault model.

enum class Algo { kDecay, kFastbc, kRobust, kGreedy };
enum class Topo { kPath, kGrid, kStar, kCaterpillar, kHypercube, kRing, kGnp };
enum class Fault { kNone, kSender, kReceiver, kCombined };

std::string algo_name(Algo a) {
  switch (a) {
    case Algo::kDecay: return "decay";
    case Algo::kFastbc: return "fastbc";
    case Algo::kRobust: return "robust";
    case Algo::kGreedy: return "greedy";
  }
  return "?";
}

graph::Graph build_topo(Topo t, Rng& rng) {
  switch (t) {
    case Topo::kPath: return graph::make_path(60);
    case Topo::kGrid: return graph::make_grid(8, 8);
    case Topo::kStar: return graph::make_star(60);
    case Topo::kCaterpillar: return graph::make_caterpillar(15, 3);
    case Topo::kHypercube: return graph::make_hypercube(6);
    case Topo::kRing: return graph::make_ring_of_cliques(8, 6);
    case Topo::kGnp: return graph::make_connected_gnp(64, 0.09, rng);
  }
  return graph::make_path(2);
}

ChannelModel build_fault(Fault f) {
  switch (f) {
    case Fault::kNone: return ChannelModel::faultless();
    case Fault::kSender: return ChannelModel::sender(0.4);
    case Fault::kReceiver: return ChannelModel::receiver(0.4);
    case Fault::kCombined: return ChannelModel::combined(0.25, 0.25);
  }
  return ChannelModel::faultless();
}

class CompletionMatrix
    : public ::testing::TestWithParam<std::tuple<Algo, Topo, Fault>> {};

TEST_P(CompletionMatrix, BroadcastCompletes) {
  const auto [algo, topo, fault] = GetParam();
  Rng grng(0x5eedULL + static_cast<std::uint64_t>(topo));
  const graph::Graph g = build_topo(topo, grng);
  const ChannelModel fm = build_fault(fault);
  RadioNetwork net(g, fm, nullptr, Rng(42));
  Rng rng(43);

  BroadcastRunResult result;
  switch (algo) {
    case Algo::kDecay:
      result = Decay().run(net, 0, rng);
      break;
    case Algo::kFastbc: {
      Fastbc a(g, 0);
      result = a.run(net, rng);
      break;
    }
    case Algo::kRobust: {
      RobustFastbcParams params;
      params.window_multiplier =
          RobustFastbc::recommended_window_multiplier(fm.effective_loss());
      RobustFastbc a(g, 0, params);
      result = a.run(net, rng);
      break;
    }
    case Algo::kGreedy: {
      GreedyRouterParams params;
      params.k = 1;
      const auto r = run_greedy_adaptive_routing(net, 0, params);
      result.completed = r.completed;
      result.rounds = r.rounds;
      break;
    }
  }
  EXPECT_TRUE(result.completed)
      << algo_name(algo) << " failed, rounds=" << result.rounds;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompletionMatrix,
    ::testing::Combine(
        ::testing::Values(Algo::kDecay, Algo::kFastbc, Algo::kRobust,
                          Algo::kGreedy),
        ::testing::Values(Topo::kPath, Topo::kGrid, Topo::kStar,
                          Topo::kCaterpillar, Topo::kHypercube, Topo::kRing,
                          Topo::kGnp),
        ::testing::Values(Fault::kNone, Fault::kSender, Fault::kReceiver,
                          Fault::kCombined)));

// ---------------------------------------------------------------------
// Decay phase-length sweep: any phase >= 2 completes on moderate paths.

class DecayPhaseSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(DecayPhaseSweep, CompletesOnNoisyPath) {
  const auto g = graph::make_path(48);
  RadioNetwork net(g, ChannelModel::receiver(0.4), nullptr, Rng(7));
  Rng rng(8);
  DecayParams params;
  params.phase_length = GetParam();
  params.max_rounds = 400000;
  EXPECT_TRUE(Decay(params).run(net, 0, rng).completed)
      << "phase " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Phases, DecayPhaseSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

// ---------------------------------------------------------------------
// GBST invariants across random instances.

class GbstRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GbstRandomSweep, ValidInterferenceFreeAndRankBounded) {
  Rng rng(GetParam());
  for (int i = 0; i < 5; ++i) {
    const auto n = static_cast<graph::NodeId>(40 + rng.next_below(160));
    const double p = 0.02 + rng.uniform01() * 0.15;
    const auto g = graph::make_connected_gnp(n, p, rng);
    trees::GbstBuildStats stats;
    const auto tree = trees::build_gbst(g, 0, &stats);
    trees::validate_ranked_bfs(g, tree);
    EXPECT_EQ(stats.violations_remaining, 0) << "n=" << n << " p=" << p;
    std::int32_t bits = 0;
    while ((std::int64_t{1} << bits) < n) ++bits;
    EXPECT_LE(tree.max_rank, bits + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbstRandomSweep,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL, 55ULL,
                                           66ULL, 77ULL, 88ULL));

// ---------------------------------------------------------------------
// Fault-rate sweep: measured loss rate on an uncontested link tracks the
// model's effective_loss() for every model kind.

class FaultRateSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FaultRateSweep, MeasuredLossMatchesEffectiveLoss) {
  const auto [kind, p] = GetParam();
  ChannelModel fm = ChannelModel::faultless();
  if (kind == 1) fm = ChannelModel::sender(p);
  if (kind == 2) fm = ChannelModel::receiver(p);
  if (kind == 3) fm = ChannelModel::combined(p, p / 2);
  const auto g = graph::make_single_link();
  RadioNetwork net(g, fm, nullptr, Rng(17));
  const int rounds = 30000;
  int received = 0;
  for (int r = 0; r < rounds; ++r) {
    net.set_broadcast(0, radio::Packet{r});
    received += static_cast<int>(net.run_round().size());
  }
  EXPECT_NEAR(1.0 - static_cast<double>(received) / rounds,
              fm.effective_loss(), 0.015)
      << to_string(fm);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, FaultRateSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.1, 0.35, 0.6, 0.85)));

// ---------------------------------------------------------------------
// Determinism: the full (algorithm seed, fault seed) pair pins down every
// run exactly, for each algorithm.

class DeterminismSweep : public ::testing::TestWithParam<Algo> {};

TEST_P(DeterminismSweep, TwoRunsAgreeExactly) {
  const auto algo = GetParam();
  const auto g = graph::make_grid(7, 7);
  auto once = [&]() -> std::int64_t {
    RadioNetwork net(g, ChannelModel::receiver(0.4), nullptr, Rng(5));
    Rng rng(6);
    switch (algo) {
      case Algo::kDecay:
        return Decay().run(net, 0, rng).rounds;
      case Algo::kFastbc: {
        Fastbc a(g, 0);
        return a.run(net, rng).rounds;
      }
      case Algo::kRobust: {
        RobustFastbc a(g, 0);
        return a.run(net, rng).rounds;
      }
      case Algo::kGreedy: {
        GreedyRouterParams params;
        params.k = 3;
        return run_greedy_adaptive_routing(net, 0, params).rounds;
      }
    }
    return -1;
  };
  EXPECT_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(Algos, DeterminismSweep,
                         ::testing::Values(Algo::kDecay, Algo::kFastbc,
                                           Algo::kRobust, Algo::kGreedy));

}  // namespace
}  // namespace nrn::core
