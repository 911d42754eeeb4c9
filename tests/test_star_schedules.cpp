// Star schedules: the Lemma 15 / Lemma 16 measurement machinery.
#include "core/star_schedules.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nrn::core {
namespace {

using radio::ChannelModel;
using radio::RadioNetwork;
using topology::make_star;

TEST(StarSchedules, AdaptiveRoutingCompletesFaultless) {
  const auto star = make_star(32);
  RadioNetwork net(star.graph, ChannelModel::faultless(), nullptr, Rng(1));
  const auto r = run_star_adaptive_routing(net, star, 10, 1'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 10);  // one round per message without faults
}

TEST(StarSchedules, AdaptiveRoutingPaysLogNPerMessage) {
  // With receiver faults at p = 1/2 the expected per-message cost is about
  // log2(n) + O(1) rounds (coupon-collector tail over n leaves).
  const auto star = make_star(256);
  RadioNetwork net(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(2));
  const std::int64_t k = 64;
  const auto r = run_star_adaptive_routing(net, star, k, 10'000'000);
  EXPECT_TRUE(r.completed);
  const double rpm = r.rounds_per_message();
  EXPECT_GT(rpm, 0.5 * std::log2(256));
  EXPECT_LT(rpm, 3.0 * std::log2(256) + 8);
}

TEST(StarSchedules, AdaptiveRoutingBudgetRespected) {
  const auto star = make_star(64);
  RadioNetwork net(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(3));
  const auto r = run_star_adaptive_routing(net, star, 1000, 20);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 20);
}

TEST(StarSchedules, NonAdaptiveNeedsEnoughReps) {
  const auto star = make_star(128);
  // One rep with faults almost surely misses a leaf.
  RadioNetwork net1(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(4));
  EXPECT_FALSE(run_star_nonadaptive_routing(net1, star, 4, 1).completed);
  // Generous reps succeed.
  RadioNetwork net2(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(5));
  const auto r = run_star_nonadaptive_routing(net2, star, 4, 40);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 4 * 40);
}

TEST(StarSchedules, RsCodingCompletesInLinearRounds) {
  const auto star = make_star(256);
  const std::int64_t k = 128;
  const auto m = rs_packet_count(k, 257, 0.5);
  RadioNetwork net(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(6));
  const auto r = run_star_rs_coding(net, star, k, m);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, m);
  // Theta(1) per message: the packet count is a constant multiple of k.
  EXPECT_LT(r.rounds_per_message(), 4.0);
}

TEST(StarSchedules, RsCodingFailsWithTooFewPackets) {
  const auto star = make_star(64);
  RadioNetwork net(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(7));
  // Exactly k packets at p=1/2: every leaf must catch all of them; with 64
  // leaves this is hopeless.
  const auto r = run_star_rs_coding(net, star, 32, 32);
  EXPECT_FALSE(r.completed);
}

TEST(StarSchedules, RsPacketCountScalesInverselyWithSurvival) {
  const auto m_half = rs_packet_count(100, 64, 0.5);
  const auto m_tenth = rs_packet_count(100, 64, 0.9);
  EXPECT_GT(m_tenth, 4 * m_half);
  EXPECT_GE(m_half, 200);  // at least k / (1-p)
}

TEST(StarSchedules, GapEmergesBetweenRoutingAndCoding) {
  // The Theorem 17 shape at one size: routing rpm / coding rpm ~ log n.
  const auto star = make_star(512);
  const std::int64_t k = 64;
  RadioNetwork net_r(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(8));
  const auto routing = run_star_adaptive_routing(net_r, star, k, 10'000'000);
  RadioNetwork net_c(star.graph, ChannelModel::receiver(0.5), nullptr, Rng(9));
  const auto coding = run_star_rs_coding(net_c, star, k,
                                         rs_packet_count(k, 513, 0.5));
  ASSERT_TRUE(routing.completed);
  ASSERT_TRUE(coding.completed);
  const double gap =
      routing.rounds_per_message() / coding.rounds_per_message();
  EXPECT_GT(gap, 2.0);  // log2(512)=9 vs constant ~2.5
}

TEST(StarSchedules, SenderFaultsMakeRoutingCheap) {
  // Under sender faults all leaves hear the same clean rounds, so adaptive
  // routing costs ~1/(1-p) per message, not log n -- the asymmetry behind
  // Theorem 28.
  const auto star = make_star(256);
  RadioNetwork net(star.graph, ChannelModel::sender(0.5), nullptr, Rng(10));
  const auto r = run_star_adaptive_routing(net, star, 64, 1'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_LT(r.rounds_per_message(), 4.0);
}

TEST(StarSchedules, ParameterValidation) {
  const auto star = make_star(4);
  RadioNetwork net(star.graph, ChannelModel::faultless(), nullptr, Rng(11));
  EXPECT_THROW(run_star_adaptive_routing(net, star, 0, 10),
               ContractViolation);
  EXPECT_THROW(run_star_rs_coding(net, star, 4, 3), ContractViolation);
  EXPECT_THROW(run_star_nonadaptive_routing(net, star, 0, 1),
               ContractViolation);
}

}  // namespace
}  // namespace nrn::core
