// Reed-Solomon: the any-k-of-m reconstruction contract the paper's coding
// schedules rely on (Section 5, footnote 1), checked over both fields the
// codec is instantiated for -- GF(2^16) (the coding schedules) and GF(2^8)
// (the byte-symbol erasure protocol).
#include "coding/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace nrn::coding {
namespace {

template <typename Field>
class ReedSolomonTest : public ::testing::Test {
 protected:
  using Codec = ReedSolomon<Field>;
  using Symbol = typename Field::Symbol;
  using Packet = RsPacket<Field>;
  using Messages = typename Codec::Messages;

  static Messages random_messages(std::size_t k, std::size_t len, Rng& rng) {
    Messages msgs(k, std::vector<Symbol>(len));
    for (auto& m : msgs)
      for (auto& s : m)
        s = static_cast<Symbol>(rng.next_below(Field::kGroupOrder + 1));
    return msgs;
  }
};

using Fields = ::testing::Types<Gf256, Gf65536>;
TYPED_TEST_SUITE(ReedSolomonTest, Fields);

TYPED_TEST(ReedSolomonTest, RoundTripFirstK) {
  Rng rng(1);
  typename TestFixture::Codec rs(8, 4);
  const auto msgs = TestFixture::random_messages(8, 4, rng);
  const auto packets = rs.encode(msgs, 8);
  EXPECT_EQ(rs.decode(packets), msgs);
}

TYPED_TEST(ReedSolomonTest, AnyKOfM) {
  Rng rng(2);
  typename TestFixture::Codec rs(6, 3);
  const auto msgs = TestFixture::random_messages(6, 3, rng);
  auto packets = rs.encode(msgs, 24);
  for (int trial = 0; trial < 20; ++trial) {
    rng.shuffle(packets);
    std::vector<typename TestFixture::Packet> subset(packets.begin(),
                                                     packets.begin() + 6);
    EXPECT_EQ(rs.decode(subset), msgs);
  }
}

TYPED_TEST(ReedSolomonTest, ExtraPacketsAreIgnored) {
  Rng rng(3);
  typename TestFixture::Codec rs(4, 2);
  const auto msgs = TestFixture::random_messages(4, 2, rng);
  const auto packets = rs.encode(msgs, 10);
  EXPECT_EQ(rs.decode(packets), msgs);  // 10 > k packets supplied
}

TYPED_TEST(ReedSolomonTest, DuplicateIndicesDoNotCount) {
  Rng rng(4);
  typename TestFixture::Codec rs(3, 2);
  const auto msgs = TestFixture::random_messages(3, 2, rng);
  const auto packets = rs.encode(msgs, 3);
  std::vector<typename TestFixture::Packet> dup{packets[0], packets[0],
                                                packets[1]};
  EXPECT_THROW(rs.decode(dup), ContractViolation);
}

TYPED_TEST(ReedSolomonTest, TooFewPacketsThrow) {
  Rng rng(5);
  typename TestFixture::Codec rs(5, 2);
  const auto msgs = TestFixture::random_messages(5, 2, rng);
  const auto packets = rs.encode(msgs, 4);
  EXPECT_THROW(rs.decode(packets), ContractViolation);
}

TYPED_TEST(ReedSolomonTest, PacketsAreDirectPolynomialEvaluations) {
  // Packet j evaluates sum_i m_i x^i at x = 2^j (pow, not the table
  // shortcut alpha_pow): packet 0 (x = 1) is the plain field sum, and the
  // last index exercises the wrap of the exponent table.
  Rng rng(6);
  typename TestFixture::Codec rs(4, 3);
  const auto msgs = TestFixture::random_messages(4, 3, rng);
  const auto& f = TypeParam::instance();
  for (const std::uint32_t j : {0u, 1u, 7u, rs.max_packets() - 1}) {
    const auto pkt = rs.encode_packet(msgs, j);
    const auto x = f.pow(2, j);
    for (std::size_t s = 0; s < 3; ++s) {
      typename TestFixture::Symbol expect = 0;
      for (std::size_t i = 0; i < 4; ++i)
        expect = f.add(expect, f.mul(msgs[i][s], f.pow(x, i)));
      EXPECT_EQ(pkt.symbols[s], expect) << "packet " << j;
    }
  }
}

TYPED_TEST(ReedSolomonTest, EvaluationPointsAreDistinctPowersOfTwo) {
  // alpha_pow(i) is 2^i: the GF(2^8) instance keeps the evaluation points
  // the byte codec always used (pow(2, i)), so erasure runs are unchanged.
  const auto& f = TypeParam::instance();
  const std::uint32_t m = ReedSolomon<TypeParam>::max_packets();
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < m; i += (m > 4096 ? 97 : 1)) {
    EXPECT_EQ(f.alpha_pow(i), f.pow(2, i)) << i;
    EXPECT_TRUE(seen.insert(f.alpha_pow(i)).second) << i;
  }
  EXPECT_EQ(f.alpha_pow(m), f.alpha_pow(0));  // the group order wraps
}

TYPED_TEST(ReedSolomonTest, SingleMessageDegenerateCase) {
  Rng rng(7);
  typename TestFixture::Codec rs(1, 5);
  const auto msgs = TestFixture::random_messages(1, 5, rng);
  const auto packets = rs.encode(msgs, 7);
  // Every packet of a k=1 code is the message itself.
  for (const auto& p : packets) EXPECT_EQ(p.symbols, msgs[0]);
  EXPECT_EQ(rs.decode({packets[5]}), msgs);
}

TYPED_TEST(ReedSolomonTest, DecodeFromRandomSubsets) {
  for (const std::size_t k : {2, 5, 16, 32, 64}) {
    for (const std::size_t overhead : {1, 8, 64}) {
      SCOPED_TRACE(testing::Message()
                   << "k=" << k << " overhead=" << overhead);
      Rng rng(100 + k * 7 + overhead);
      typename TestFixture::Codec rs(k, 2);
      const auto msgs = TestFixture::random_messages(k, 2, rng);
      auto packets =
          rs.encode(msgs, static_cast<std::uint32_t>(k + overhead));
      rng.shuffle(packets);
      std::vector<typename TestFixture::Packet> subset(
          packets.begin(), packets.begin() + static_cast<long>(k));
      EXPECT_EQ(rs.decode(subset), msgs);
    }
  }
}

TYPED_TEST(ReedSolomonTest, LargePacketIndices) {
  Rng rng(8);
  typename TestFixture::Codec rs(4, 2);
  const auto msgs = TestFixture::random_messages(4, 2, rng);
  const std::uint32_t m = rs.max_packets();
  std::vector<typename TestFixture::Packet> packets;
  for (const std::uint32_t idx : {m / 2, m / 2 + 1, m - 30, m - 1})
    packets.push_back(rs.encode_packet(msgs, idx));
  EXPECT_EQ(rs.decode(packets), msgs);
}

TYPED_TEST(ReedSolomonTest, RejectsBadParameters) {
  using Codec = typename TestFixture::Codec;
  EXPECT_THROW(Codec(0, 1), ContractViolation);
  EXPECT_THROW(Codec(1, 0), ContractViolation);
  EXPECT_THROW(Codec(Codec::max_packets() + 1, 1), ContractViolation);
  Rng rng(9);
  Codec rs(2, 1);
  const auto msgs = TestFixture::random_messages(2, 1, rng);
  EXPECT_THROW(rs.encode_packet(msgs, Codec::max_packets()),
               ContractViolation);
  EXPECT_THROW(rs.encode_packet(TestFixture::random_messages(3, 1, rng), 0),
               ContractViolation);
}

TEST(ReedSolomon, FieldSizesBoundThePacketDomain) {
  EXPECT_EQ(ReedSolomon<Gf256>::max_packets(), 255u);
  EXPECT_EQ(ReedSolomon<Gf65536>::max_packets(), 65535u);
}

}  // namespace
}  // namespace nrn::coding
