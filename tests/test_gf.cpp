// Field axioms and known values for GF(2^8) and GF(2^16).
#include <gtest/gtest.h>

#include <vector>

#include "coding/gf256.hpp"
#include "coding/gf65536.hpp"
#include "common/rng.hpp"

namespace nrn::coding {
namespace {

class Gf256Axioms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Gf256Axioms, RandomizedFieldLaws) {
  const auto& f = Gf256::instance();
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    // Commutativity.
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.add(a, b), f.add(b, a));
    // Associativity.
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    // Distributivity.
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    // Identities.
    EXPECT_EQ(f.mul(a, 1), a);
    EXPECT_EQ(f.add(a, 0), a);
    // Characteristic 2.
    EXPECT_EQ(f.add(a, a), 0);
    // Inverses.
    if (a != 0) {
      EXPECT_EQ(f.mul(a, f.inv(a)), 1);
      EXPECT_EQ(f.div(f.mul(a, b), a), b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Gf256Axioms,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

TEST(Gf256, ZeroAnnihilates) {
  const auto& f = Gf256::instance();
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(f.mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(f.mul(0, static_cast<std::uint8_t>(a)), 0);
  }
}

TEST(Gf256, DivisionByZeroThrows) {
  const auto& f = Gf256::instance();
  EXPECT_THROW(f.div(5, 0), ContractViolation);
  EXPECT_THROW(f.inv(0), ContractViolation);
}

TEST(Gf256, MultiplicationIsPermutationForNonzero) {
  const auto& f = Gf256::instance();
  std::vector<bool> seen(256, false);
  for (int b = 0; b < 256; ++b) {
    const auto v = f.mul(3, static_cast<std::uint8_t>(b));
    EXPECT_FALSE(b != 0 && v == 0);
    EXPECT_FALSE(seen[v] && v != 0);
    seen[v] = true;
  }
}

TEST(Gf256, KnownAesFieldValues) {
  // In GF(2^8)/0x11D: 2*141 = 0x11D truncated... verify via small cases:
  const auto& f = Gf256::instance();
  EXPECT_EQ(f.mul(2, 2), 4);
  EXPECT_EQ(f.mul(16, 16), 0x1D);  // x^8 = x^4+x^3+x^2+1 -> 0x1D
  EXPECT_EQ(f.pow(2, 8), 0x1D);
  EXPECT_EQ(f.pow(2, 0), 1);
  EXPECT_EQ(f.pow(0, 5), 0);
}

TEST(Gf256, MulAdd) {
  const auto& f = Gf256::instance();
  EXPECT_EQ(f.mul_add(7, 3, 5), static_cast<std::uint8_t>(7 ^ f.mul(3, 5)));
}

TEST(Gf256, RowKernelsMatchMulForEveryPair) {
  // Each factor f (including 0) against the row holding every symbol x
  // once: axpy adds f*x onto a known base, scale replaces x by f*x.
  const auto& f = Gf256::instance();
  std::vector<std::uint8_t> src(256), dst(256), base(256);
  for (int x = 0; x < 256; ++x) {
    src[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(x);
    base[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(x * 37 + 11);
  }
  for (int fi = 0; fi < 256; ++fi) {
    const auto fac = static_cast<std::uint8_t>(fi);
    dst = base;
    f.axpy(dst.data(), src.data(), fac, 256);
    for (std::size_t x = 0; x < 256; ++x)
      ASSERT_EQ(dst[x], base[x] ^ f.mul(fac, src[x])) << "f=" << fi;
    dst = src;
    f.scale(dst.data(), fac, 256);
    for (std::size_t x = 0; x < 256; ++x)
      ASSERT_EQ(dst[x], f.mul(fac, src[x])) << "f=" << fi;
  }
}

TEST(Gf256, RowKernelsTouchExactlyLen) {
  // Every length 0..67 (covering any unrolled or vectorized tail), with a
  // guard symbol past the end that must survive.
  const auto& f = Gf256::instance();
  Rng rng(5);
  for (std::size_t len = 0; len <= 67; ++len) {
    std::vector<std::uint8_t> src(len + 1), dst(len + 1);
    for (auto& s : src) s = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& s : dst) s = static_cast<std::uint8_t>(rng.next_below(256));
    const auto fac = static_cast<std::uint8_t>(rng.next_below(256));
    auto expect = dst;
    for (std::size_t i = 0; i < len; ++i) expect[i] ^= f.mul(fac, src[i]);
    auto got = dst;
    f.axpy(got.data(), src.data(), fac, len);
    ASSERT_EQ(got, expect) << "axpy len=" << len;
    for (std::size_t i = 0; i < len; ++i) expect[i] = f.mul(fac, got[i]);
    f.scale(got.data(), fac, len);
    ASSERT_EQ(got, expect) << "scale len=" << len;
  }
}

TEST(Gf256, ProductTableMatchesShiftAndAddReference) {
  // The table-driven mul against carry-less shift-and-add multiplication
  // reduced by 0x11D, for every pair (zero operands included).
  const auto& f = Gf256::instance();
  for (unsigned a = 0; a < 256; ++a)
    for (unsigned b = 0; b < 256; ++b) {
      unsigned x = a, y = b, prod = 0;
      while (y != 0) {
        if (y & 1) prod ^= x;
        y >>= 1;
        x <<= 1;
        if (x & 0x100) x ^= 0x11D;
      }
      ASSERT_EQ(f.mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                prod)
          << a << " * " << b;
    }
}

class Gf65536Axioms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Gf65536Axioms, RandomizedFieldLaws) {
  const auto& f = Gf65536::instance();
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.next_below(65536));
    const auto b = static_cast<std::uint16_t>(rng.next_below(65536));
    const auto c = static_cast<std::uint16_t>(rng.next_below(65536));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    EXPECT_EQ(f.mul(a, 1), a);
    EXPECT_EQ(f.add(a, a), 0);
    if (a != 0) {
      EXPECT_EQ(f.mul(a, f.inv(a)), 1);
      EXPECT_EQ(f.div(f.mul(a, b), a), b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Gf65536Axioms,
                         ::testing::Values(11ULL, 12ULL, 13ULL));

TEST(Gf65536, GeneratorHasFullOrder) {
  // alpha_pow(i) for i in [0, 65535) must be distinct (primitivity).
  const auto& f = Gf65536::instance();
  std::vector<bool> seen(65536, false);
  for (std::uint32_t i = 0; i < Gf65536::kGroupOrder; ++i) {
    const auto v = f.alpha_pow(i);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "alpha^" << i << " repeats";
    seen[v] = true;
  }
}

TEST(Gf65536, PowMatchesRepeatedMul) {
  const auto& f = Gf65536::instance();
  std::uint16_t acc = 1;
  for (std::uint64_t e = 0; e < 40; ++e) {
    EXPECT_EQ(f.pow(9, e), acc);
    acc = f.mul(acc, 9);
  }
}

TEST(Gf65536, RowKernelsMatchMul) {
  // Random rows seeded with zero symbols, random factors plus the zero
  // and unit factors, lengths 0..67.
  const auto& f = Gf65536::instance();
  Rng rng(21);
  auto symbol = [&] {
    return rng.next_below(4) == 0
               ? std::uint16_t{0}
               : static_cast<std::uint16_t>(rng.next_below(65536));
  };
  for (std::size_t len = 0; len <= 67; ++len) {
    for (const std::uint16_t fac :
         {std::uint16_t{0}, std::uint16_t{1}, symbol(), symbol(), symbol()}) {
      std::vector<std::uint16_t> src(len + 1), dst(len + 1);
      for (auto& s : src) s = symbol();
      for (auto& s : dst) s = symbol();
      auto expect = dst;
      for (std::size_t i = 0; i < len; ++i)
        expect[i] = f.add(expect[i], f.mul(fac, src[i]));
      auto got = dst;
      f.axpy(got.data(), src.data(), fac, len);
      ASSERT_EQ(got, expect) << "axpy len=" << len << " f=" << fac;
      for (std::size_t i = 0; i < len; ++i) expect[i] = f.mul(fac, got[i]);
      f.scale(got.data(), fac, len);
      ASSERT_EQ(got, expect) << "scale len=" << len << " f=" << fac;
    }
  }
}

TEST(Gf65536, DivisionByZeroThrows) {
  const auto& f = Gf65536::instance();
  EXPECT_THROW(f.div(5, 0), ContractViolation);
  EXPECT_THROW(f.inv(0), ContractViolation);
}

}  // namespace
}  // namespace nrn::coding
