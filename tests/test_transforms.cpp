// Faultless-to-faulty transformations (Lemmas 25/26).
#include "core/transforms.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using graph::make_path;
using graph::make_star;
using radio::ChannelModel;
using radio::RadioNetwork;

TEST(Transforms, StarBaseScheduleShape) {
  StarBaseSchedule base(5);
  EXPECT_EQ(base.rounds(), 5);
  EXPECT_EQ(base.base_messages(), 5);
  EXPECT_DOUBLE_EQ(base.faultless_throughput(), 1.0);
  const auto acts = base.actions(3);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].first, 0);
  EXPECT_EQ(acts[0].second, 3);
}

TEST(Transforms, PathPipelineActionsNeverCollide) {
  PathPipelineBaseSchedule base(12, 6);
  for (std::int64_t r = 0; r < base.rounds(); ++r) {
    const auto acts = base.actions(r);
    for (std::size_t a = 0; a < acts.size(); ++a) {
      for (std::size_t b = a + 1; b < acts.size(); ++b) {
        // Broadcasters must be >= 3 apart on the path.
        EXPECT_GE(std::abs(acts[a].first - acts[b].first), 3);
      }
      // Message/round consistency: round = 3m + j.
      EXPECT_EQ(r, 3 * acts[a].second + acts[a].first);
    }
  }
}

TEST(Transforms, RoutingTransformFaultlessIsLossless) {
  const auto g = make_star(8);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(1));
  StarBaseSchedule base(4);
  TransformParams params;
  params.x = 8;
  Rng rng(2);
  const auto r = run_routing_transform(net, base, params, rng);
  EXPECT_TRUE(r.run.completed);
  EXPECT_EQ(r.run.messages, 32);
}

TEST(Transforms, RoutingTransformSurvivesSenderFaults) {
  const auto g = make_star(16);
  RadioNetwork net(g, ChannelModel::sender(0.5), nullptr, Rng(3));
  StarBaseSchedule base(8);
  TransformParams params;
  params.x = 32;
  params.eta = 0.5;
  Rng rng(4);
  const auto r = run_routing_transform(net, base, params, rng);
  EXPECT_TRUE(r.run.completed);
  // Throughput ~ tau (1-p) / (1+eta) = 1 * 0.5 / 1.5.
  EXPECT_NEAR(r.measured_throughput, 0.33, 0.12);
}

TEST(Transforms, RoutingTransformOnPathPipeline) {
  const auto g = make_path(9);
  RadioNetwork net(g, ChannelModel::sender(0.4), nullptr, Rng(5));
  PathPipelineBaseSchedule base(9, 6);
  TransformParams params;
  params.x = 32;
  params.eta = 0.5;
  Rng rng(6);
  const auto r = run_routing_transform(net, base, params, rng);
  EXPECT_TRUE(r.run.completed);
}

TEST(Transforms, CodingTransformSurvivesReceiverFaults) {
  // Lemma 26 is stronger than Lemma 25: it also covers receiver faults.
  const auto g = make_path(9);
  RadioNetwork net(g, ChannelModel::receiver(0.4), nullptr, Rng(7));
  PathPipelineBaseSchedule base(9, 6);
  TransformParams params;
  params.x = 48;
  params.eta = 0.5;
  Rng rng(8);
  const auto r = run_coding_transform(net, base, params, rng);
  EXPECT_TRUE(r.run.completed);
}

TEST(Transforms, CodingTransformSurvivesSenderFaults) {
  const auto g = make_star(12);
  RadioNetwork net(g, ChannelModel::sender(0.5), nullptr, Rng(9));
  StarBaseSchedule base(6);
  TransformParams params;
  params.x = 48;
  params.eta = 0.5;
  Rng rng(10);
  const auto r = run_coding_transform(net, base, params, rng);
  EXPECT_TRUE(r.run.completed);
}

TEST(Transforms, RoutingTransformNotReceiverFaultRobustOnStar) {
  // The Lemma 25 construction waits for *its own* success only; with
  // receiver faults different leaves fail independently, so the star's
  // last leaf misses sub-messages and the run fails for moderate x and
  // tight meta-rounds.  This documents why Lemma 25 is sender-fault only.
  int failures = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    const auto g = make_star(64);
    RadioNetwork net(g, ChannelModel::receiver(0.5), nullptr, Rng(20 + s));
    StarBaseSchedule base(4);
    TransformParams params;
    params.x = 16;
    params.eta = 0.1;
    Rng rng(30 + s);
    if (!run_routing_transform(net, base, params, rng).run.completed)
      ++failures;
  }
  EXPECT_GE(failures, 4);
}

TEST(Transforms, ThroughputTracksOneMinusP) {
  // Sweep p and check measured throughput of the coding transform follows
  // tau (1-p) within the (1+eta) envelope.
  const auto g = make_star(8);
  StarBaseSchedule base(6);
  TransformParams params;
  params.x = 64;
  params.eta = 0.25;
  std::vector<double> ratio;
  for (const double p : {0.0, 0.3, 0.6}) {
    RadioNetwork net(g, p == 0.0 ? ChannelModel::faultless()
                                 : ChannelModel::sender(p),
                     nullptr, Rng(40));
    Rng rng(41);
    const auto r = run_coding_transform(net, base, params, rng);
    ASSERT_TRUE(r.run.completed) << "p=" << p;
    ratio.push_back(r.measured_throughput / (1.0 - p));
  }
  // tau(1-p) scaling: the normalized ratios agree across p.
  EXPECT_NEAR(ratio[0], ratio[1], 0.15);
  EXPECT_NEAR(ratio[0], ratio[2], 0.15);
}

TEST(Transforms, MetaLengthMatchesFormula) {
  const auto g = make_star(4);
  RadioNetwork net(g, ChannelModel::sender(0.5), nullptr, Rng(50));
  StarBaseSchedule base(2);
  TransformParams params;
  params.x = 10;
  params.eta = 0.0;
  Rng rng(51);
  const auto r = run_routing_transform(net, base, params, rng);
  EXPECT_EQ(r.meta_length, 20);  // x / (1-p)
}

TEST(Transforms, RejectsOversizedX) {
  const auto g = make_star(4);
  RadioNetwork net(g, ChannelModel::faultless(), nullptr, Rng(52));
  StarBaseSchedule base(2);
  TransformParams params;
  params.x = 65;
  Rng rng(53);
  EXPECT_THROW(run_routing_transform(net, base, params, rng),
               ContractViolation);
}

}  // namespace
}  // namespace nrn::core
