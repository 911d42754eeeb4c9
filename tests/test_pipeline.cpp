// Layered pipeline routing (Lemmas 20/21).
#include "core/bipartite_pipeline.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "topology/wct.hpp"

namespace nrn::core {
namespace {

using graph::make_grid;
using graph::make_path;
using graph::make_star;
using radio::ChannelModel;
using radio::RadioNetwork;

TEST(Pipeline, CompletesOnStar) {
  const auto g = make_star(32);
  RadioNetwork net(g, ChannelModel::receiver(0.5), nullptr, Rng(1));
  PipelineParams params;
  params.k = 12;
  Rng rng(2);
  const auto r = run_layered_pipeline_routing(net, 0, params, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.messages, 12);
}

TEST(Pipeline, CompletesOnPathFaultless) {
  const auto g = make_path(20);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(3));
  PipelineParams params;
  params.k = 10;
  Rng rng(4);
  EXPECT_TRUE(run_layered_pipeline_routing(net, 0, params, rng).completed);
}

TEST(Pipeline, CompletesOnPathWithFaults) {
  const auto g = make_path(16);
  RadioNetwork net(g, ChannelModel::receiver(0.4), nullptr, Rng(5));
  PipelineParams params;
  params.k = 8;
  Rng rng(6);
  EXPECT_TRUE(run_layered_pipeline_routing(net, 0, params, rng).completed);
}

TEST(Pipeline, CompletesOnGridWithSenderFaults) {
  const auto g = make_grid(6, 6);
  RadioNetwork net(g, ChannelModel::sender(0.4), nullptr, Rng(7));
  PipelineParams params;
  params.k = 6;
  Rng rng(8);
  EXPECT_TRUE(run_layered_pipeline_routing(net, 0, params, rng).completed);
}

TEST(Pipeline, CompletesOnWct) {
  Rng grng(9);
  topology::WctParams wp;
  wp.sender_count = 24;
  wp.class_count = 3;
  wp.clusters_per_class = 4;
  wp.cluster_size = 6;
  const topology::WctNetwork wct(wp, grng);
  RadioNetwork net(wct.graph(), ChannelModel::receiver(0.5), nullptr, Rng(10));
  PipelineParams params;
  params.k = 8;
  Rng rng(11);
  const auto r = run_layered_pipeline_routing(net, wct.source(), params, rng);
  EXPECT_TRUE(r.completed);
}

TEST(Pipeline, PipeliningBeatsNaiveSequentialOnDeepGraphs) {
  // With batches pipelined three layers apart, a deep path broadcasts k
  // messages in O(D + k) message-slots rather than O(D * k).
  const auto g = make_path(30);
  PipelineParams params;
  params.k = 16;
  params.batch = 2;
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(12));
  Rng rng(13);
  const auto r = run_layered_pipeline_routing(net, 0, params, rng);
  ASSERT_TRUE(r.completed);
  // Sequential per-message flooding would need ~D * k boundary-message
  // slots; the pipeline must finish in far fewer rounds even with decay
  // overhead per slot.
  EXPECT_LT(r.rounds, 29 * 16 * 4);
}

TEST(Pipeline, TinyCapFails) {
  const auto g = make_path(10);
  RadioNetwork net(g, ChannelModel::receiver(0.5), nullptr, Rng(14));
  PipelineParams params;
  params.k = 4;
  params.meta_round_cap = 1;
  Rng rng(15);
  const auto r = run_layered_pipeline_routing(net, 0, params, rng);
  EXPECT_FALSE(r.completed);
}

TEST(Pipeline, SingleMessageDegenerate) {
  const auto g = make_path(6);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(16));
  PipelineParams params;
  params.k = 1;
  Rng rng(17);
  EXPECT_TRUE(run_layered_pipeline_routing(net, 0, params, rng).completed);
}

TEST(Pipeline, BatchSizeOne) {
  const auto g = make_path(8);
  RadioNetwork net(g, ChannelModel::receiver(0.3), nullptr, Rng(18));
  PipelineParams params;
  params.k = 5;
  params.batch = 1;
  Rng rng(19);
  EXPECT_TRUE(run_layered_pipeline_routing(net, 0, params, rng).completed);
}

TEST(Pipeline, DeterministicGivenSeeds) {
  const auto g = make_grid(5, 5);
  auto run = [&g](std::uint64_t seed) {
    RadioNetwork net(g, ChannelModel::receiver(0.4), nullptr, Rng(seed));
    PipelineParams params;
    params.k = 6;
    Rng rng(seed + 1);
    return run_layered_pipeline_routing(net, 0, params, rng).rounds;
  };
  EXPECT_EQ(run(20), run(20));
}

}  // namespace
}  // namespace nrn::core
