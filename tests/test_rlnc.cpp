// RLNC state: rank algebra, innovation detection, decode correctness
// (the machinery behind Lemmas 12/13).
#include "coding/rlnc.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace nrn::coding {
namespace {

std::vector<std::vector<std::uint8_t>> random_messages(std::size_t k,
                                                       std::size_t len,
                                                       Rng& rng) {
  std::vector<std::vector<std::uint8_t>> msgs(
      k, std::vector<std::uint8_t>(len));
  for (auto& m : msgs)
    for (auto& s : m) s = static_cast<std::uint8_t>(rng.next_below(256));
  return msgs;
}

TEST(Rlnc, SourceSeedIsFullRank) {
  Rng rng(1);
  RlncState s(5, 3);
  s.seed_source(random_messages(5, 3, rng));
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.rank(), 5u);
}

TEST(Rlnc, DecodeRecoversMessagesDirectly) {
  Rng rng(2);
  const auto msgs = random_messages(6, 4, rng);
  RlncState src(6, 4);
  src.seed_source(msgs);
  EXPECT_EQ(src.decode(), msgs);
}

TEST(Rlnc, RelayDecodesAfterKInnovativePackets) {
  Rng rng(3);
  const auto msgs = random_messages(8, 4, rng);
  RlncState src(8, 4);
  src.seed_source(msgs);
  RlncState sink(8, 4);
  int packets = 0;
  while (!sink.complete()) {
    sink.absorb(src.emit(rng));
    ++packets;
    ASSERT_LT(packets, 100);
  }
  EXPECT_EQ(sink.decode(), msgs);
  // Random GF(256) combinations are innovative with prob >= 1 - 1/255;
  // needing many retries would indicate broken elimination.
  EXPECT_LE(packets, 12);
}

TEST(Rlnc, MultiHopRelayChain) {
  Rng rng(4);
  const auto msgs = random_messages(5, 2, rng);
  RlncState a(5, 2), b(5, 2), c(5, 2);
  a.seed_source(msgs);
  // a -> b -> c, interleaved: c only hears b's re-coded packets.
  int rounds = 0;
  while (!c.complete()) {
    b.absorb(a.emit(rng));
    if (b.rank() > 0) c.absorb(b.emit(rng));
    ASSERT_LT(++rounds, 200);
  }
  EXPECT_EQ(c.decode(), msgs);
}

TEST(Rlnc, DependentPacketIsNotInnovative) {
  Rng rng(5);
  const auto msgs = random_messages(4, 2, rng);
  RlncState src(4, 2);
  src.seed_source(msgs);
  RlncState sink(4, 2);
  const auto pkt = src.emit(rng);
  EXPECT_TRUE(sink.absorb(pkt));
  EXPECT_FALSE(sink.absorb(pkt));  // identical packet: dependent
  EXPECT_EQ(sink.rank(), 1u);
}

TEST(Rlnc, ScaledPacketIsNotInnovative) {
  Rng rng(6);
  RlncState sink(3, 0);
  RlncPacket p1{{1, 2, 3}, {}};
  EXPECT_TRUE(sink.absorb(p1));
  const auto& f = Gf256::instance();
  RlncPacket p2{{f.mul(5, 1), f.mul(5, 2), f.mul(5, 3)}, {}};
  EXPECT_FALSE(sink.absorb(p2));
}

TEST(Rlnc, CoefficientOnlyModeTracksRank) {
  Rng rng(7);
  RlncState src(10, 0);
  src.seed_source({});
  RlncState sink(10, 0);
  while (!sink.complete()) sink.absorb(src.emit(rng));
  EXPECT_EQ(sink.rank(), 10u);
  EXPECT_THROW(sink.decode(), ContractViolation);
}

TEST(Rlnc, PartialRankDecodeThrows) {
  Rng rng(8);
  const auto msgs = random_messages(4, 2, rng);
  RlncState src(4, 2);
  src.seed_source(msgs);
  RlncState sink(4, 2);
  sink.absorb(src.emit(rng));
  EXPECT_FALSE(sink.complete());
  EXPECT_THROW(sink.decode(), ContractViolation);
}

TEST(Rlnc, EmitFromEmptyThrows) {
  Rng rng(9);
  RlncState s(3, 0);
  EXPECT_THROW(s.emit(rng), ContractViolation);
}

TEST(Rlnc, AbsorbValidatesLengths) {
  RlncState s(3, 2);
  EXPECT_THROW(s.absorb(RlncPacket{{1, 2}, {0, 0}}), ContractViolation);
  EXPECT_THROW(s.absorb(RlncPacket{{1, 2, 3}, {0}}), ContractViolation);
}

TEST(Rlnc, MixingTwoPartialSourcesCoversUnion) {
  // Node hears packets from two peers holding disjoint halves of the
  // basis; its rank converges to the union's dimension.
  Rng rng(10);
  RlncState half_a(6, 0), half_b(6, 0), sink(6, 0);
  // half_a spans e0..e2, half_b spans e3..e5.
  for (int i = 0; i < 3; ++i) {
    RlncPacket p{std::vector<std::uint8_t>(6, 0), {}};
    p.coeffs[static_cast<size_t>(i)] = 1;
    half_a.absorb(p);
    RlncPacket q{std::vector<std::uint8_t>(6, 0), {}};
    q.coeffs[static_cast<size_t>(3 + i)] = 1;
    half_b.absorb(q);
  }
  int rounds = 0;
  while (sink.rank() < 6) {
    sink.absorb(half_a.emit(rng));
    sink.absorb(half_b.emit(rng));
    ASSERT_LT(++rounds, 100);
  }
  EXPECT_TRUE(sink.complete());
}

/// A state of rank about half of k, reached by absorbing random packets.
RlncState partial_state(std::size_t k, std::size_t block_len, Rng& rng) {
  RlncState s(k, block_len);
  RlncPacket pkt{std::vector<std::uint8_t>(k), std::vector<std::uint8_t>(block_len)};
  while (s.rank() < (k + 1) / 2) {
    for (auto& c : pkt.coeffs) c = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& c : pkt.payload) c = static_cast<std::uint8_t>(rng.next_below(256));
    s.absorb(pkt);
  }
  return s;
}

TEST(Rlnc, DrawThenCombineEqualsEmit) {
  for (const std::size_t block_len : {std::size_t{0}, std::size_t{5}}) {
    for (const std::size_t k : {1, 2, 7, 32}) {
      Rng rng(100 + k + block_len);
      const auto s = partial_state(k, block_len, rng);
      for (int rep = 0; rep < 20; ++rep) {
        Rng a = rng;
        Rng b = rng;
        const auto pkt = s.emit(a);
        std::vector<std::uint8_t> lambda(s.rank());
        s.draw(b, lambda.data());
        std::vector<std::uint8_t> coeffs(k, 0xAB), payload(block_len, 0xCD);
        s.combine(lambda.data(), coeffs.data(), payload.data());
        ASSERT_EQ(coeffs, pkt.coeffs) << "k=" << k << " rep=" << rep;
        ASSERT_EQ(payload, pkt.payload) << "k=" << k << " rep=" << rep;
        ASSERT_NE(std::count(lambda.begin(), lambda.end(), 0),
                  static_cast<std::ptrdiff_t>(lambda.size()));
        // Same number of draws: both generators continue identically.
        for (int i = 0; i < 4; ++i) ASSERT_EQ(a(), b());
        rng = a;
      }
    }
  }
}

TEST(Rlnc, DrawResamplesAllZeroCombination) {
  // Rank 1: a draw is one next_below(256); the all-zero draw (1/256)
  // must be redrawn, so over many draws lambda is never zero and some
  // draws consume more than one value.
  RlncState s(4, 0);
  s.absorb(RlncPacket{{0, 1, 2, 3}, {}});
  Rng rng(7);
  int resampled = 0;
  for (int rep = 0; rep < 4000; ++rep) {
    Rng probe = rng;
    const bool zero_first = probe.next_below(256) == 0;
    std::uint8_t lambda = 0;
    s.draw(rng, &lambda);
    ASSERT_NE(lambda, 0);
    resampled += zero_first ? 1 : 0;
  }
  EXPECT_GT(resampled, 0);
}

TEST(Rlnc, BasisStaysInReducedEchelonForm) {
  for (const std::size_t k : {1, 3, 8, 20}) {
    Rng rng(200 + k);
    RlncState s(k, 2);
    RlncPacket pkt{std::vector<std::uint8_t>(k), {0, 0}};
    for (int step = 0; step < static_cast<int>(4 * k) && !s.complete(); ++step) {
      // Sparse packets so pivots arrive out of column order.
      for (auto& c : pkt.coeffs)
        c = rng.next_below(3) == 0 ? static_cast<std::uint8_t>(rng.next_below(256)) : 0;
      s.absorb(pkt);
      for (std::size_t i = 0; i < s.rank(); ++i) {
        if (i > 0) {
          ASSERT_LT(s.pivot(i - 1), s.pivot(i));
        }
        const std::uint8_t* row = s.row(i);
        ASSERT_EQ(row[s.pivot(i)], 1);
        for (std::size_t j = 0; j < s.pivot(i); ++j) ASSERT_EQ(row[j], 0);
        for (std::size_t other = 0; other < s.rank(); ++other)
          if (other != i) {
            ASSERT_EQ(s.row(other)[s.pivot(i)], 0);
          }
      }
    }
  }
}

TEST(Rlnc, PointerAbsorbMatchesPacketAbsorb) {
  Rng rng(300);
  const auto msgs = random_messages(6, 3, rng);
  RlncState src(6, 3), by_packet(6, 3), by_pointer(6, 3);
  src.seed_source(msgs);
  while (!by_packet.complete()) {
    const auto pkt = src.emit(rng);
    EXPECT_EQ(by_packet.absorb(pkt),
              by_pointer.absorb(pkt.coeffs.data(), pkt.payload.data()));
    ASSERT_EQ(by_packet.rank(), by_pointer.rank());
  }
  EXPECT_EQ(by_pointer.decode(), msgs);
}

TEST(Rlnc, PayloadDecodeThroughRelays) {
  // Payload mode through two re-coding relays with sparse first-hop
  // packets: every intermediate basis re-emits, and the sink still
  // decodes the exact source bytes.
  Rng rng(400);
  const auto msgs = random_messages(12, 9, rng);
  RlncState src(12, 9), mid(12, 9), sink(12, 9);
  src.seed_source(msgs);
  int rounds = 0;
  while (!sink.complete()) {
    mid.absorb(src.emit(rng));
    if (mid.rank() > 0) sink.absorb(mid.emit(rng));
    ASSERT_LT(++rounds, 400);
  }
  EXPECT_EQ(mid.decode(), msgs);
  EXPECT_EQ(sink.decode(), msgs);
}

class RlncDimensionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RlncDimensionSweep, EndToEnd) {
  const std::size_t k = GetParam();
  Rng rng(40 + k);
  const auto msgs = random_messages(k, 3, rng);
  RlncState src(k, 3), sink(k, 3);
  src.seed_source(msgs);
  int packets = 0;
  while (!sink.complete()) {
    sink.absorb(src.emit(rng));
    ASSERT_LT(++packets, static_cast<int>(4 * k + 50));
  }
  EXPECT_EQ(sink.decode(), msgs);
}

INSTANTIATE_TEST_SUITE_P(Dims, RlncDimensionSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 8, 17, 32,
                                                        64, 128));

}  // namespace
}  // namespace nrn::coding
