// GF(2^8) arithmetic via log/antilog tables.
//
// Field: GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1)  (0x11D, the AES-adjacent
// polynomial commonly used by RLNC implementations; generator 0x02).
// Used by the random linear network coding layer (Lemmas 12/13), where a
// byte-sized field keeps per-packet coefficient vectors compact while the
// probability that a random combination is dependent stays below 1/255 per
// deficient dimension, and by the byte-symbol Reed-Solomon codec
// (coding/reed_solomon.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/contracts.hpp"

namespace nrn::coding {

class Gf256 {
 public:
  using Symbol = std::uint8_t;
  static constexpr int kFieldSize = 256;
  static constexpr std::uint32_t kGroupOrder = 255;

  /// Tables are built once, at first use.
  static const Gf256& instance();

  Symbol add(Symbol a, Symbol b) const { return a ^ b; }
  Symbol sub(Symbol a, Symbol b) const { return a ^ b; }

  Symbol mul(Symbol a, Symbol b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  Symbol div(Symbol a, Symbol b) const {
    NRN_EXPECTS(b != 0, "division by zero in GF(256)");
    if (a == 0) return 0;
    return exp_[log_[a] + 255 - log_[b]];
  }

  Symbol inv(Symbol a) const {
    NRN_EXPECTS(a != 0, "inverse of zero in GF(256)");
    return exp_[255 - log_[a]];
  }

  Symbol pow(Symbol a, std::uint32_t e) const;

  /// alpha^i for the fixed generator alpha = 2; distinct for
  /// 0 <= i < kGroupOrder (used as Reed-Solomon evaluation points).
  Symbol alpha_pow(std::uint32_t i) const { return exp_[i % kGroupOrder]; }

  /// a + b * c, the inner-product workhorse.
  Symbol mul_add(Symbol a, Symbol b, Symbol c) const { return a ^ mul(b, c); }

 private:
  Gf256();
  std::array<Symbol, 512> exp_{};  // doubled to skip the mod-255 reduction
  std::array<std::uint16_t, 256> log_{};
};

}  // namespace nrn::coding
