// WCT construction (Figure 2) and the Lemma 18 unique-reception bound.
#include "topology/wct.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/wct_schedules.hpp"
#include "graph/algorithms.hpp"

namespace nrn::topology {
namespace {

WctParams small_params() {
  WctParams p;
  p.sender_count = 32;
  p.class_count = 4;
  p.clusters_per_class = 6;
  p.cluster_size = 8;
  return p;
}

TEST(Wct, StructureMatchesParams) {
  Rng rng(1);
  const WctNetwork wct(small_params(), rng);
  EXPECT_EQ(wct.senders().size(), 32u);
  EXPECT_EQ(wct.cluster_count(), 24);
  std::int64_t members = 0;
  for (const auto& c : wct.clusters()) members += static_cast<std::int64_t>(c.size());
  EXPECT_EQ(members, 24 * 8);
  EXPECT_EQ(wct.graph().node_count(), 1 + 32 + 24 * 8);
}

TEST(Wct, RadiusTwo) {
  Rng rng(2);
  const WctNetwork wct(small_params(), rng);
  EXPECT_LE(graph::eccentricity(wct.graph(), wct.source()), 2);
  EXPECT_TRUE(graph::is_connected(wct.graph()));
}

TEST(Wct, ClusterMembersShareNeighborhood) {
  Rng rng(3);
  const WctNetwork wct(small_params(), rng);
  for (std::int32_t c = 0; c < wct.cluster_count(); ++c) {
    const auto& nbrs = wct.cluster_senders(c);
    for (const auto member : wct.clusters()[static_cast<size_t>(c)]) {
      EXPECT_EQ(wct.graph().degree(member),
                static_cast<std::int32_t>(nbrs.size()));
      for (const auto s : nbrs) EXPECT_TRUE(wct.graph().has_edge(member, s));
    }
  }
}

TEST(Wct, ClassInclusionProbabilitiesDecay) {
  // Average neighborhood size of class j should be ~ M * 2^-j.
  Rng rng(4);
  WctParams params;
  params.sender_count = 256;
  params.class_count = 4;
  params.clusters_per_class = 40;
  params.cluster_size = 1;
  const WctNetwork wct(params, rng);
  std::vector<double> avg(5, 0.0);
  std::vector<int> count(5, 0);
  for (std::int32_t c = 0; c < wct.cluster_count(); ++c) {
    const auto cls = static_cast<size_t>(wct.cluster_class(c));
    avg[cls] += static_cast<double>(wct.cluster_senders(c).size());
    ++count[cls];
  }
  for (int j = 1; j <= 4; ++j) {
    avg[static_cast<size_t>(j)] /= count[static_cast<size_t>(j)];
    EXPECT_NEAR(avg[static_cast<size_t>(j)], 256.0 * std::pow(2.0, -j),
                256.0 * std::pow(2.0, -j) * 0.5)
        << "class " << j;
  }
}

TEST(Wct, Lemma18UniqueReceptionFractionIsSmall) {
  // For any broadcast set size, the expected fraction of uniquely-served
  // clusters stays O(1/L): with L classes only ~1 class resonates.
  Rng rng(5);
  WctParams params;
  params.sender_count = 256;
  params.class_count = 8;
  params.clusters_per_class = 32;
  params.cluster_size = 1;
  const WctNetwork wct(params, rng);

  for (std::int32_t set_size : {1, 2, 4, 16, 64, 256}) {
    double worst = 0.0;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<bool> mask(256, false);
      // Random subset of the requested size.
      std::vector<std::int32_t> ids(256);
      for (int i = 0; i < 256; ++i) ids[static_cast<size_t>(i)] = i;
      rng.shuffle(ids);
      for (std::int32_t i = 0; i < set_size; ++i)
        mask[static_cast<size_t>(ids[static_cast<size_t>(i)])] = true;
      worst = std::max(worst, wct.unique_reception_fraction(mask));
    }
    // With 8 classes, at most ~2 classes resonate: fraction <= ~2.5/8.
    EXPECT_LE(worst, 0.40) << "set size " << set_size;
  }
}

TEST(Wct, FromNodeBudgetProducesReasonableDimensions) {
  const auto p = WctParams::from_node_budget(4096);
  EXPECT_GE(p.sender_count, 64);
  EXPECT_GE(p.class_count, 2);
  EXPECT_GE(p.clusters_per_class, 1);
  EXPECT_GE(p.cluster_size, 64);
  Rng rng(6);
  const WctNetwork wct(p, rng);
  EXPECT_TRUE(graph::is_connected(wct.graph()));
}

TEST(Wct, MaskSizeValidated) {
  Rng rng(7);
  const WctNetwork wct(small_params(), rng);
  EXPECT_THROW(wct.unique_reception_fraction(std::vector<bool>(3, true)),
               ContractViolation);
}

TEST(WctSchedules, CodedScheduleCompletes) {
  Rng rng(8);
  const WctNetwork wct(small_params(), rng);
  radio::RadioNetwork net(wct.graph(), radio::ChannelModel::receiver(0.5),
                          nullptr, Rng(9));
  core::WctCodedParams params;
  params.k = 32;
  Rng srng(10);
  const auto r = core::run_wct_rs_coding(net, wct, params, srng);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.rounds, 32);
}

TEST(WctSchedules, CodedScheduleRoundsPerMessageModest) {
  Rng rng(11);
  WctParams params = small_params();
  params.class_count = 5;
  const WctNetwork wct(params, rng);
  radio::RadioNetwork net(wct.graph(), radio::ChannelModel::receiver(0.5),
                          nullptr, Rng(12));
  core::WctCodedParams sched;
  sched.k = 64;
  Rng srng(13);
  const auto r = core::run_wct_rs_coding(net, wct, sched, srng);
  ASSERT_TRUE(r.completed);
  // Theta(log n)-ish per message; must stay far below log^2 scaling.
  EXPECT_LT(r.rounds_per_message(), 120.0);
}

}  // namespace
}  // namespace nrn::topology
