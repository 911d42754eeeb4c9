// Multi-message RLNC broadcast (Lemmas 12/13): completion, payload
// decodability at every node, and throughput shape.
#include "core/multi_message.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {
namespace {

using graph::make_grid;
using graph::make_path;
using graph::make_star;
using radio::ChannelModel;
using radio::RadioNetwork;

std::vector<std::vector<std::uint8_t>> random_messages(std::size_t k,
                                                       std::size_t len,
                                                       Rng& rng) {
  std::vector<std::vector<std::uint8_t>> msgs(
      k, std::vector<std::uint8_t>(len));
  for (auto& m : msgs)
    for (auto& s : m) s = static_cast<std::uint8_t>(rng.next_below(256));
  return msgs;
}

/// The straightforward eager loop: every staged sender emits a full
/// packet at stage time and receivers absorb it after the round.  Needs
/// every pattern parameter and max_rounds set explicitly; returns the
/// same result RlncBroadcast must.
MultiRunResult eager_reference(
    const graph::Graph& g, const MultiMessageParams& params,
    RadioNetwork& net, Rng& rng,
    const std::vector<std::vector<std::uint8_t>>* messages) {
  const std::int32_t n = g.node_count();
  std::vector<coding::RlncState> state(
      static_cast<std::size_t>(n), coding::RlncState(params.k, params.block_len));
  state[0].seed_source(messages != nullptr ? *messages
                                           : std::vector<std::vector<std::uint8_t>>{});
  trees::RankedBfsTree tree;
  std::int32_t log_n = 1;
  while ((std::int64_t{1} << log_n) < n) ++log_n;
  if (params.pattern == MultiPattern::kRobustFastbc)
    tree = trees::build_gbst(g, 0, nullptr);
  const std::int64_t period = 6LL * log_n;
  const std::int64_t window =
      static_cast<std::int64_t>(params.window_multiplier) * params.block_size;

  MultiRunResult result;
  result.messages = static_cast<std::int64_t>(params.k);
  std::vector<coding::RlncPacket> pool;
  std::vector<radio::NodeId> senders;
  std::vector<radio::PacketId> ids;
  for (std::int64_t round = 0; round < params.max_rounds; ++round) {
    pool.clear();
    senders.clear();
    ids.clear();
    auto stage = [&](std::size_t u) {
      if (state[u].rank() == 0) return;
      pool.push_back(state[u].emit(rng));
      senders.push_back(static_cast<radio::NodeId>(u));
      ids.push_back(static_cast<radio::PacketId>(pool.size() - 1));
    };
    if (params.pattern == MultiPattern::kDecay) {
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n),
          static_cast<std::int32_t>(round % params.decay_phase), stage);
    } else if (round % 2 == 1) {
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n),
          static_cast<std::int32_t>(((round - 1) / 2) % params.decay_phase),
          stage);
    } else {
      const std::int64_t t_half = round / 2;
      const std::int64_t band = t_half / window;
      for (radio::NodeId u = 0; u < n; ++u) {
        const auto ui = static_cast<std::size_t>(u);
        if (!tree.is_fast(u)) continue;
        const std::int64_t block = tree.level[ui] / params.block_size;
        const std::int64_t lhs =
            ((block - 6LL * tree.rank[ui] + 6 - band) % period + period) %
            period;
        if (lhs == 0 && tree.level[ui] % 3 == t_half % 3) stage(ui);
      }
    }
    net.stage_broadcasts(senders, ids);
    for (const auto& d : net.run_round()) {
      auto& st = state[static_cast<std::size_t>(d.receiver)];
      if (!st.complete()) st.absorb(pool[static_cast<std::size_t>(d.packet.id)]);
    }
    result.rounds = round + 1;
    if (std::all_of(state.begin(), state.end(),
                    [](const coding::RlncState& s) { return s.complete(); })) {
      result.completed = true;
      break;
    }
  }
  if (result.completed && messages != nullptr)
    for (const auto& st : state)
      if (st.decode() != *messages) result.completed = false;
  return result;
}

struct EagerCase {
  MultiPattern pattern;
  std::size_t block_len;
  std::uint64_t seed;
};

class MultiMessageEagerReference : public ::testing::TestWithParam<EagerCase> {};

TEST_P(MultiMessageEagerReference, LazyCombineMatchesEagerEmit) {
  const auto [pattern, block_len, seed] = GetParam();
  const auto g = graph::make_grid(5, 6);
  MultiMessageParams params;
  params.k = 6;
  params.block_len = block_len;
  params.pattern = pattern;
  params.decay_phase = 6;
  params.block_size = 4;
  params.window_multiplier = 8;
  params.max_rounds = 20000;
  for (const auto& channel :
       {ChannelModel::receiver(0.3), ChannelModel::sender(0.3)}) {
    Rng msg_rng(seed);
    const auto msgs = random_messages(params.k, block_len, msg_rng);
    const auto* messages = block_len > 0 ? &msgs : nullptr;

    RadioNetwork ref_net(g, channel, nullptr, Rng(seed + 1));
    Rng ref_rng(seed + 2);
    const auto expected = eager_reference(g, params, ref_net, ref_rng, messages);

    RlncBroadcast algo(g, 0, params);
    RadioNetwork net(g, channel, nullptr, Rng(seed + 1));
    Rng rng(seed + 2);
    const auto got = messages != nullptr ? algo.run_and_verify(net, rng, msgs)
                                         : algo.run(net, rng);
    EXPECT_TRUE(expected.completed);
    EXPECT_EQ(got.completed, expected.completed);
    EXPECT_EQ(got.rounds, expected.rounds);
    // Same draws in the same order: both coin streams end in step.
    EXPECT_EQ(rng(), ref_rng());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndSeeds, MultiMessageEagerReference,
    ::testing::Values(EagerCase{MultiPattern::kDecay, 0, 31},
                      EagerCase{MultiPattern::kDecay, 0, 32},
                      EagerCase{MultiPattern::kDecay, 4, 33},
                      EagerCase{MultiPattern::kRobustFastbc, 0, 34},
                      EagerCase{MultiPattern::kRobustFastbc, 0, 35},
                      EagerCase{MultiPattern::kRobustFastbc, 4, 36}));

TEST(MultiMessage, DecayPatternCompletesOnPath) {
  const auto g = make_path(24);
  MultiMessageParams params;
  params.k = 8;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::receiver(0.3), nullptr, Rng(1));
  Rng rng(2);
  const auto r = algo.run(net, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.messages, 8);
}

TEST(MultiMessage, DecayPatternPayloadsDecodeEverywhere) {
  const auto g = make_grid(5, 5);
  MultiMessageParams params;
  params.k = 6;
  params.block_len = 4;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::receiver(0.3), nullptr, Rng(3));
  Rng rng(4);
  const auto msgs = random_messages(6, 4, rng);
  const auto r = algo.run_and_verify(net, rng, msgs);
  EXPECT_TRUE(r.completed);  // includes the decode-equality check
}

TEST(MultiMessage, RobustFastbcPatternCompletesOnPath) {
  const auto g = make_path(48);
  MultiMessageParams params;
  params.k = 6;
  params.pattern = MultiPattern::kRobustFastbc;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::receiver(0.3), nullptr, Rng(5));
  Rng rng(6);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(MultiMessage, RobustFastbcPatternVerifiesPayloads) {
  const auto g = make_path(32);
  MultiMessageParams params;
  params.k = 4;
  params.block_len = 3;
  params.pattern = MultiPattern::kRobustFastbc;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::sender(0.3), nullptr, Rng(7));
  Rng rng(8);
  const auto msgs = random_messages(4, 3, rng);
  EXPECT_TRUE(algo.run_and_verify(net, rng, msgs).completed);
}

TEST(MultiMessage, SenderFaultsAlsoWork) {
  const auto g = make_grid(4, 6);
  MultiMessageParams params;
  params.k = 5;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::sender(0.4), nullptr, Rng(9));
  Rng rng(10);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(MultiMessage, StarManyMessages) {
  const auto g = make_star(30);
  MultiMessageParams params;
  params.k = 32;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::receiver(0.5), nullptr, Rng(11));
  Rng rng(12);
  const auto r = algo.run(net, rng);
  EXPECT_TRUE(r.completed);
  // Coding on a star should be near Theta(1) per message (Lemma 16 inside
  // the RLNC framework): allow a generous constant but not log n.
  EXPECT_LT(r.rounds_per_message(), 40.0);
}

TEST(MultiMessage, RoundsGrowLinearlyInK) {
  // Lemma 12: k log n term dominates for long paths and many messages, so
  // rounds/message should be roughly flat in k.
  const auto g = make_path(16);
  double rpm_small = 0, rpm_large = 0;
  {
    MultiMessageParams params;
    params.k = 8;
    RlncBroadcast algo(g, 0, params);
    RadioNetwork net(g, ChannelModel::receiver(0.3), nullptr, Rng(13));
    Rng rng(14);
    rpm_small = algo.run(net, rng).rounds_per_message();
  }
  {
    MultiMessageParams params;
    params.k = 64;
    RlncBroadcast algo(g, 0, params);
    RadioNetwork net(g, ChannelModel::receiver(0.3), nullptr, Rng(15));
    Rng rng(16);
    rpm_large = algo.run(net, rng).rounds_per_message();
  }
  EXPECT_LT(rpm_large, rpm_small * 3.0);
}

TEST(MultiMessage, BudgetRespected) {
  const auto g = make_path(32);
  MultiMessageParams params;
  params.k = 8;
  params.max_rounds = 5;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(17));
  Rng rng(18);
  const auto r = algo.run(net, rng);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 5);
}

TEST(MultiMessage, SingleMessageDegenerate) {
  const auto g = make_path(8);
  MultiMessageParams params;
  params.k = 1;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(19));
  Rng rng(20);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(MultiMessage, VerifyRequiresPayloadMode) {
  const auto g = make_path(8);
  MultiMessageParams params;
  params.k = 2;
  RlncBroadcast algo(g, 0, params);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(21));
  Rng rng(22);
  EXPECT_THROW(algo.run_and_verify(net, rng, {}), ContractViolation);
}

}  // namespace
}  // namespace nrn::core
